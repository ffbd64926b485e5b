"""``python -m scadasim``: the ``scadasim`` command."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
