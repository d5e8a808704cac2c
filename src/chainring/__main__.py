"""``python -m chainring``: the same command line as the ``chainring`` script."""

from .cli import main

if __name__ == "__main__":
    main()
