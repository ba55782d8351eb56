"""``python -m plsphere``: the command-line interface of :mod:`plsphere.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
