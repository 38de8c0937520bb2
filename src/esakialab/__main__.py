"""``python -m esakialab``: the ``esakialab`` command."""
from .cli import main

if __name__ == "__main__":
    main()
