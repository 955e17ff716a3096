"""``python -m nlie``: the ``nlie`` command."""

from .cli import entry

entry()
