"""`python -m feynkac`: the same command line as the `feynkac` script."""
import sys
from .cli import main
if __name__ == "__main__":
    sys.exit(main())
