"""The CLI's option table against the argparse parsers built from it.

``cli._parse`` reads a plain argv from ``cli._COMMANDS`` alone and hands
every other argv to argparse.  The parsers built from the table are pinned
to the structure they had when each command declared its own options, and
a differential property test holds ``_parse`` to
``build_parser().parse_args`` on plain and perturbed argv alike.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from circodes import cli

# -- the parsers built from the table -------------------------------------------

HELP = (("-h", "--help"), "help", None, "==SUPPRESS==", False,
        "show this help message and exit", None, 0, None, "_HelpAction")


def store(flag, dest, type=None, default=None, required=False, help=None, metavar=None):
    return ((flag,), dest, type, default, required, help, metavar, None, None, "_StoreAction")


def store_true(flag, help=None):
    return ((flag,), flag[2:], None, False, False, help, None, 0, True, "_StoreTrueAction")


JSON = store_true("--json")

# Recorded from the parsers as each command declared them with its own
# add_argument calls: per parser its prog, description, defaults, actions
# (option strings, dest, type, default, required, help, metavar, nargs,
# const, action class) and mutually exclusive groups; the top-level
# parser's subparsers action holds each command's help.
RECORDED = {
    "circodes": ("circodes", "Locating and identifying codes in circulant graphs.", {}, [
        HELP,
        ((), "command", None, None, True, None, None, "A...", None, "_SubParsersAction"),
    ], []),
    "commands": [
        ("verify", "verify a code against a property"),
        ("construct", "emit the table construction for an order"),
        ("search", "exact minimum size, or existence at --k"),
        ("table", "bounds/construction/optimum per order"),
        ("density", "density and validity of a periodic code"),
        ("prove", "recompute the transfer-matrix proof of the optima"),
    ],
    "verify": ("circodes verify", None, {"func": "cmd_verify"}, [
        HELP,
        store("-n", "n", "int", required=True, help="number of vertices"),
        store("--offsets", "offsets", default="1,3", help="comma-separated offsets"),
        store("--code", "code", required=True,
              help="comma-separated vertices, or @file with one per line"),
        store("--kind", "kind", required=True, help="dominating, locating, or identifying"),
        store_true("--shadows", "print every shadow"),
        store_true("--shares", "print member shares"),
        store("--heavy", "heavy", help="list vertices with share above THRESH (e.g. 3 or 11/4)",
              metavar="THRESH"),
        JSON,
    ], []),
    "construct": ("circodes construct", None, {"func": "cmd_construct"}, [
        HELP,
        store("-n", "n", "int", required=True),
        store("--kind", "kind", required=True, help="locating or identifying"),
        JSON,
    ], []),
    "search": ("circodes search", None, {"func": "cmd_search"}, [
        HELP,
        store("-n", "n", "int", required=True),
        store("--offsets", "offsets", default="1,3"),
        store("--kind", "kind", required=True),
        store("--k", "k", "int", help="test one size only"),
        store("--budget", "budget", "int", help="largest order searched exhaustively"),
        store_true("--progress", "report candidate throughput on stderr"),
        JSON,
    ], []),
    "table": ("circodes table", None, {"func": "cmd_table"}, [
        HELP,
        store("--kind", "kind", required=True),
        store("--from", "n_from", "int", required=True),
        store("--to", "n_to", "int", required=True),
        store_true("--csv"),
        JSON,
    ], [("csv", "json")]),
    "density": ("circodes density", None, {"func": "cmd_density"}, [
        HELP,
        store("--period", "period", "int", required=True),
        store("--residues", "residues", required=True, help="comma-separated residues"),
        store("--kind", "kind", required=True),
        JSON,
    ], []),
    "prove": ("circodes prove", None, {"func": "cmd_prove"}, [
        HELP,
        store("--kind", "kind", required=True),
        store("--offsets", "offsets", default="1,3", help="largest offset at most 3"),
        JSON,
    ], []),
}


def _describe(parser):
    actions = [(tuple(a.option_strings), a.dest, getattr(a.type, "__name__", a.type),
                a.default, a.required, a.help, a.metavar, a.nargs, a.const, type(a).__name__)
               for a in parser._actions]
    groups = [tuple(a.dest for a in group._group_actions)
              for group in parser._mutually_exclusive_groups]
    defaults = {key: value.__name__ for key, value in parser._defaults.items()}
    return parser.prog, parser.description, defaults, actions, groups


def test_parsers_match_the_recorded_structure():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    built = {"circodes": _describe(parser),
             "commands": [(a.dest, a.help) for a in sub._choices_actions]}
    built |= {name: _describe(p) for name, p in sub.choices.items()}
    assert built == RECORDED
    assert list(cli._COMMANDS) == [name for name, _ in RECORDED["commands"]]


# -- plain and perturbed argv: _parse against argparse -------------------------------

VALUE_TEXT = st.text(alphabet="0123456789,/@= abcdilnot-", max_size=8)


def _token(keywords):
    """A valid value for an option: a number for a typed one, else plain text."""
    if "type" in keywords:
        return st.integers(0, 10**6).map(str)
    return VALUE_TEXT.filter(lambda text: not text.startswith("-"))


def _repeated(draw, groups, specs):
    groups.insert(draw(st.integers(0, len(groups))), list(draw(st.sampled_from(groups))))


def _joined(draw, groups, specs):  # --opt=value
    valued = [g for g in groups if len(g) == 2]
    if valued:
        group = draw(st.sampled_from(valued))
        group[:] = [f"{group[0]}={group[1]}"]


def _abbreviated(draw, groups, specs):
    group = draw(st.sampled_from([g for g in groups if len(g[0]) > 3]))
    group[0] = group[0][:draw(st.integers(3, len(group[0]) - 1))]


def _bad_number(draw, groups, specs):
    typed = [g for g in groups if len(g) == 2 and "type" in specs[g[0]]]
    if typed:
        draw(st.sampled_from(typed))[1] = draw(st.sampled_from(
            ["-1", "-12", "-0", "1.5", "1e3", "x", "", " 7 ", "0x1f", "1_000"]))


def _missing(draw, groups, specs):
    groups.remove(draw(st.sampled_from([g for g in groups if specs[g[0]].get("required")])))


def _both_formats(draw, groups, specs):
    groups.insert(draw(st.integers(0, len(groups))), ["--csv", "--json"])


def _unchanged(draw, groups, specs):
    pass


PERTURBATIONS = (_unchanged, _repeated, _joined, _abbreviated, _bad_number, _missing,
                 _both_formats)
STRAYS = ("-h", "--help", "stray", "12", "-", "--", "-x", "--threads=2", "-n12", "--kind",
          "verify")


@st.composite
def argvs(draw):
    """A command with its required and some optional options in random order,
    then one perturbation, and sometimes a help or stray token anywhere."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    _, _, options, exclusive = cli._COMMANDS[command]
    chosen = [o for o in options if o[1].get("required") or draw(st.booleans())]
    chosen += draw(st.lists(st.sampled_from(exclusive), max_size=1)) if exclusive else []
    groups = [[flag] + ([] if "action" in keywords else [draw(_token(keywords))])
              for flag, keywords in draw(st.permutations(chosen))]
    draw(st.sampled_from(PERTURBATIONS))(draw, groups, dict(options + exclusive))
    argv = [command] + [token for group in groups for token in group]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(STRAYS)))
    return argv


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            namespace, code = parse(list(argv)), None
        except SystemExit as exc:
            namespace, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), namespace


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_parse_matches_argparse(argv):
    # namespace, exit code, stdout and stderr, whichever path reads argv
    assert _outcome(cli._parse, argv) == _outcome(cli.build_parser().parse_args, argv)

