"""``python -m openmaps``: the ``openmaps`` command without installing it."""

import sys

from .cli_io import main

sys.exit(main())
