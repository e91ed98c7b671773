"""Parser parity: the CLI accepts exactly the options it always has.

``tests/cli_parser_snapshot.json`` records every parser of the
``astra-memrepro`` tree (including the nested ``predict`` sub-verbs) and,
for each action, its option strings or positional dest, ``dest``,
``repr(default)``, type, choices, nargs, requiredness, action class and
mutually-exclusive-group membership.  Help text is deliberately left
out, so help strings may be reworded freely; anything a user can type
or rely on may not drift.

Regenerate (only when an option change is intended)::

    PYTHONPATH=src python tests/test_cli_parity.py > tests/cli_parser_snapshot.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

SNAPSHOT = Path(__file__).with_name("cli_parser_snapshot.json")


def _describe(action: argparse.Action, groups: dict) -> dict:
    choices = action.choices
    if isinstance(action, argparse._SubParsersAction):
        choices = list(choices)
    elif choices is not None:
        choices = [repr(c) for c in choices]
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": repr(action.default),
        "type": getattr(action.type, "__name__", repr(action.type)),
        "choices": choices,
        "nargs": repr(action.nargs),
        "required": bool(action.required),
        "action": type(action).__name__,
        "exclusive_group": groups.get(id(action)),
    }


def walk(parser: argparse.ArgumentParser) -> dict:
    """``{prog: [action descriptions]}`` for ``parser`` and every subparser."""
    groups = {}
    for i, group in enumerate(parser._mutually_exclusive_groups):
        for action in group._group_actions:
            groups[id(action)] = {"index": i, "required": group.required}
    out = {parser.prog: [_describe(a, groups) for a in parser._actions]}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                out.update(walk(child))
    return out


def _normalised(tree: dict) -> dict:
    # Option order within a parser is presentation; positional order is
    # not, so positionals (and the subcommand dispatchers, whose choice
    # order is the --help order) keep their sequence and options are
    # keyed.
    norm = {}
    for prog, actions in tree.items():
        positionals = [a for a in actions if not a["option_strings"]]
        options = sorted(
            (a for a in actions if a["option_strings"]),
            key=lambda a: a["option_strings"],
        )
        norm[prog] = {"positionals": positionals, "options": options}
    return norm


def _current_tree() -> dict:
    from repro.cli import build_parser

    return walk(build_parser())


def test_parser_tree_matches_snapshot():
    expected = json.loads(SNAPSHOT.read_text())
    current = _current_tree()
    assert sorted(current) == sorted(expected)
    assert len(expected) == 17
    # 187 user-facing actions, plus the two subcommand dispatchers.
    assert sum(
        a["action"] != "_SubParsersAction"
        for actions in expected.values() for a in actions
    ) == 187
    norm_current, norm_expected = _normalised(current), _normalised(expected)
    for prog in expected:
        assert norm_current[prog] == norm_expected[prog], prog


if __name__ == "__main__":
    print(json.dumps(_current_tree(), indent=1, sort_keys=True))
