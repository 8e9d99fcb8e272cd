"""`python -m kohnspec`: the `kohnspec` command without an install."""
import sys

from .cli import main

sys.exit(main())
