"""The CLI's flag surface and its flag-validation error paths.

``tests/golden/cli_surface.json`` pins every subcommand's flags — each
one's default, choices, nargs, action and type — so refactoring how the
parser is assembled (shared parent parsers, ``set_defaults``) cannot
add, drop or change a flag unnoticed. Regenerate it only for an
intended CLI change::

    PYTHONPATH=src python tests/test_cli_surface.py > tests/golden/cli_surface.json
"""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden" / "cli_surface.json"


def _describe(action):
    return {
        "default": action.default,
        "choices": list(action.choices) if action.choices else None,
        "nargs": action.nargs,
        "action": type(action).__name__,
        "type": getattr(action.type, "__name__", None),
    }


def surface():
    """``{subcommand: {flag or positional dest: attributes}}``."""
    parser = build_parser()
    (sub,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    out = {}
    for name, subparser in sorted(sub.choices.items()):
        out[name] = {
            (max(action.option_strings, key=len) if action.option_strings
             else action.dest): _describe(action)
            for action in subparser._actions
            if not isinstance(action, argparse._HelpAction)
        }
    return out


def test_cli_surface_matches_golden():
    # A JSON round trip turns tuples into lists, like the golden file.
    assert json.loads(json.dumps(surface())) == json.loads(GOLDEN.read_text())


# -- error paths: exit 1 with the message -------------------------------------

BAD_DEVICES = (
    "unknown device(s) vaporware (choose from: core-i7, gtx580, gtx8800, "
    "hd5970)\n"
)
BAD_KILL = "bad --kill-device spec 'gtx580:x' (want NAME or NAME:N)\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "jg-series-single", "--devices", "gtx580,vaporware"],
         BAD_DEVICES),
        (["run", "jg-series-single", "--kill-device", "gtx580:x"], BAD_KILL),
        (["run", "jg-series-single", "--slow-device", "gtx580:0.5"],
         "bad --slow-device spec 'gtx580:0.5' (want NAME:FACTOR or "
         "NAME:FACTOR:N with FACTOR >= 1.0)\n"),
        (["run", "jg-series-single", "--resume"],
         "--resume requires --journal DIR\n"),
        (["serve", "--session", "a:jg-series-single", "--devices",
          "vaporware"], BAD_DEVICES),
        (["serve", "--session", "a:jg-series-single", "--kill-device",
          "gtx580:x"], BAD_KILL),
        (["serve", "--session", "a:jg-series-single", "--resume"],
         "--resume requires --serve-dir DIR\n"),
        (["serve-bench", "--devices", "vaporware"], BAD_DEVICES),
        (["serve-bench", "--kill-device", "gtx580:x"], BAD_KILL),
    ],
    ids=[
        "run-devices", "run-kill", "run-slow", "run-resume",
        "serve-devices", "serve-kill", "serve-resume",
        "serve-bench-devices", "serve-bench-kill",
    ],
)
def test_bad_flag_exits_1_with_message(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


# Small enough that a command which wrongly accepts the flags still
# finishes quickly.
SMALL = ["--scale", "0.05", "--max-sim-items", "16"]


@pytest.mark.parametrize(
    "argv, names",
    [
        (["run", "jg-series-single", "--steps", "1", "--devices",
          "gtx580,hd5970", "--kill-device", "gtx850:0"], "gtx850"),
        (["run", "jg-series-single", "--steps", "1", "--devices",
          "gtx580,hd5970", "--slow-device", "gtx850:4"], "gtx850"),
        (["run", "jg-series-single", "--steps", "1", "--kill-device",
          "gtx580"], "gtx580"),
        (["run", "jg-series-single", "--steps", "1", "--slow-device",
          "gtx580:4", "--kill-device", "hd5970:1"], "gtx580, hd5970"),
        (["serve", "--session", "a:jg-series-single", "--steps", "1",
          "--devices", "gtx580,hd5970", "--kill-device", "gtx850:1"],
         "gtx850"),
        (["serve", "--session", "a:jg-series-single", "--steps", "1",
          "--kill-device", "gtx580:1"], "gtx580"),
        (["serve-bench", "jg-series-single", "--sessions", "1",
          "--tenants", "1", "--kill-device", "gtx850:1"], "gtx850"),
    ],
    ids=[
        "run-kill", "run-slow", "run-kill-no-fleet", "run-both-no-fleet",
        "serve-kill", "serve-kill-no-fleet", "serve-bench-kill",
    ],
)
def test_fault_target_outside_devices_is_rejected(argv, names, capsys):
    """A ``--kill-device`` or ``--slow-device`` name that is not one of
    ``--devices`` would never fire: single-device filters carry no
    device key, and a fleet only routes faults to its own members."""
    assert main(argv + SMALL) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "--kill-device/--slow-device name(s) {} not in --devices".format(names)
    )


if __name__ == "__main__":
    print(json.dumps(surface(), indent=2, sort_keys=True))
