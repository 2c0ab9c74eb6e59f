"""The leaves of the CLI's parser tree: each command, `simulate`/`sweep` target or quantity name.

``test_cli.py`` checks that every flag a leaf takes is read, and
``test_cli_fuzz.py`` draws its flag mutations from each leaf's own flags.
"""

from __future__ import annotations

import argparse
from typing import Iterator

from qredist.cli import build_parser


def leaf_parsers(parser: argparse.ArgumentParser | None = None, path: tuple[str, ...] = ()
                 ) -> Iterator[tuple[tuple[str, ...], argparse.ArgumentParser]]:
    """(argv prefix, parser) for each parser that runs a command."""
    parser = build_parser() if parser is None else parser
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, child in subs[0].choices.items():
        yield from leaf_parsers(child, (*path, name))


def options(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    """The flags a leaf parser takes, -h excluded."""
    return [a for a in parser._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)]
