"""``python -m biasaudit``: the same command line as the ``biasaudit`` script."""

import sys

from .cli import main

sys.exit(main())
