"""`python -m gmspec`: the gmspec command line."""

from .cli import main

if __name__ == "__main__":
    main()
