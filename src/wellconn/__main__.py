"""Allow `python -m wellconn` alongside the console script."""

from .cli import run

if __name__ == "__main__":
    run()
