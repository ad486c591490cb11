"""Golden text output of the CLI: the exact bytes, apart from the run's
wall_time, of one small case of each enumerable object and renderer, and
of the `tables` text and csv layouts; by the sha256 of the same bytes, of
larger `--render json` and `--render text` listings; and the exact help
texts and usage errors, which main() must print the same whether it
builds the parser of one command or of all.  A change to any of these is
a change to the CLI's output and must be made on purpose."""
from __future__ import annotations

import hashlib
import re
import shlex

import pytest

from flowpoly import cli, combinat, gravity, paths, unified
from flowpoly.combinat import InputError
from test_readme_examples import examples

WALL_TIME = re.compile(r"wall_time: [0-9.]+s")

GOLDEN = [
    (
        "enumerate gravity --kind in --n 4 --k 2",
        "a3  a4\n"
        "o   o\n"
        "    o\n"
        "    o\n"
        "a3  a4\n"
        "*---*\n"
        "    o\n"
        "    o\n"
        "# enumerate\n"
        "count: 2\n"
        "[PASS] emitted = estimated count: expected 2, got 2\n"
        "wall_time: -\n"
    ),
    (
        "enumerate gravity --kind out --n 4 --k 2",
        "a1  a2\n"
        "o   o\n"
        "a1  a2\n"
        "*---*\n"
        "# enumerate\n"
        "count: 2\n"
        "[PASS] emitted = estimated count: expected 2, got 2\n"
        "wall_time: -\n"
    ),
    (
        "enumerate gravity --kind mcar-out --n 2 --k 2",
        "a0\n"
        "*\n"
        "colors (top row first): 1\n"
        "a0\n"
        "*\n"
        "colors (top row first): 2\n"
        "# enumerate\n"
        "count: 2\n"
        "[PASS] emitted = estimated count: expected 2, got 2\n"
        "wall_time: -\n"
    ),
    (
        "enumerate truncated --n 4 --k 2 --i 0",
        "oo#\n"
        "o##\n"
        "###\n"
        "###\n"
        "tail path: (0,) labels ((),)\n"
        "segments: [1,2]\n"
        "oo#\n"
        "o##\n"
        "###\n"
        "###\n"
        "tail path: (0,) labels ((),)\n"
        "segments: [2,2]\n"
        "# enumerate\n"
        "count: 2\n"
        "[PASS] emitted = estimated count: expected 2, got 2\n"
        "wall_time: -\n"
    ),
    (
        "enumerate multilabeled --k 2 --r 2 --i 1",
        "N[b1]N[1]EE\n"
        "N[b0]N[1]EE\n"
        "N[1]EN[b1]E\n"
        "N[1]EN[b0]E\n"
        "N[b1]EN[1]E\n"
        "N[b0]EN[1]E\n"
        "# enumerate\n"
        "count: 6\n"
        "[PASS] emitted = estimated count: expected 6, got 6\n"
        "wall_time: -\n"
    ),
    (
        "enumerate dyck --a 2 --b 3",
        "NNEEE  shape=(2, 0, 0)\n"
        "NENEE  shape=(1, 1, 0)\n"
        "# enumerate\n"
        "count: 2\n"
        "[PASS] emitted = estimated count: expected 2, got 2\n"
        "wall_time: -\n"
    ),
    (
        "enumerate unified --graph ps:n=4 --netflow custom:[1,1,1,-3]",
        "s=(2, 0, 0) sigma=((1, 2), (), ()) alpha=((1, 1), (), ()) flow=(1, 0, 0, 0, 0)\n"
        "s=(1, 1, 0) sigma=((1,), (2,), ()) alpha=((1,), (1,), ()) flow=(0, 0, 0, 0, 0)\n"
        "s=(1, 1, 0) sigma=((2,), (1,), ()) alpha=((1,), (1,), ()) flow=(0, 0, 0, 0, 0)\n"
        "# enumerate\n"
        "count: 3\n"
        "[PASS] emitted = estimated count: expected 3, got 3\n"
        "wall_time: -\n"
    ),
    (
        "enumerate unified --graph ps:n=4 --netflow custom:[1,1,1,-3] --render json",
        '{"shape": [2, 0, 0], "sigma": [[1, 2], [], []], "alpha": [[1, 1], [], []], '
        '"gamma": [1, 0, 0, 0, 0]}\n'
        '{"shape": [1, 1, 0], "sigma": [[1], [2], []], "alpha": [[1], [1], []], '
        '"gamma": [0, 0, 0, 0, 0]}\n'
        '{"shape": [1, 1, 0], "sigma": [[2], [1], []], "alpha": [[1], [1], []], '
        '"gamma": [0, 0, 0, 0, 0]}\n'
        "# enumerate\n"
        "count: 3\n"
        "[PASS] emitted = estimated count: expected 3, got 3\n"
        "wall_time: -\n"
    ),
    (
        "tables parking --k 2 --rmax 3",
        "# tables\n"
        "rows: [[1], [2, 1], [7, 6, 3], [30, 36, 32, 16]]\n"
        "wall_time: -\n"
        "2-parking triangle\n"
        " 1\n"
        " 2  1\n"
        " 7  6  3\n"
        "30 36 32 16\n"
    ),
    (
        "tables parking --k 2 --rmax 3 --format csv",
        "1\n"
        "2,1\n"
        "7,6,3\n"
        "30,36,32,16\n"
    ),
]


@pytest.mark.parametrize("argv, text", GOLDEN, ids=[argv for argv, _ in GOLDEN])
def test_text_output_is_pinned(capsys, argv, text):
    assert cli.main(argv.split()) == 0
    assert WALL_TIME.sub("wall_time: -", capsys.readouterr().out) == text


# argv -> sha256 of its stdout with wall_time blanked
DIGESTS = {
    "enumerate gravity --kind in --n 8 --k 2 --render json":
        "4ed82cb3cea9b743dce625a6379b723de142384233141a6f6e844c9a64b16b7d",
    "enumerate gravity --kind out --n 8 --k 3 --render json":
        "bd751c83ac8e1bdb1771a5a4ffbb4dd7089a8e40884629a850290c4a0b93ce9e",
    "enumerate gravity --kind mcar-out --n 5 --k 3 --render json":
        "92f63ef3831628a0d9adceb3dea6d9d40013558eff12bc101a33f9ea2c0f4626",
    "enumerate dyck --a 5 --b 7 --render json":
        "3aaa609c546b4711f5dddcd63bec0e9da3c10bd6c96290a790584449dbeaba23",
    "enumerate truncated --n 7 --k 2 --i 2 --render json":
        "43f4263f212e495b5ed6839d64f60e25d3c5dd73d3d7958339da65272c3d6d4d",
    "enumerate multilabeled --k 3 --r 3 --i 2 --render json":
        "c0ebd6872a0966e638a01399a63a721a89b66660c0add5fba8fce40f4c94e047",
    # a reference shape with a zero part
    "enumerate dyck --t 2,0,1,1 --render json":
        "9032fc5ecc1c22496dd58a24e3eeec5f4ace17cf8cad1e8730995523b5ec5136",
    "enumerate gravity --kind in --n 8 --k 2 --render text":
        "e29d7ed99b41af2c6e6c3f105a80a1fb287b8b2a210601760746e6f4286b6b90",
    "enumerate gravity --kind out --n 8 --k 3 --render text":
        "f3c05630650008dc9fffb745497e781605b4d7ec87e33b0fa8954a6d6d7eb521",
    "enumerate gravity --kind mcar-out --n 5 --k 3 --render text":
        "d9b651b2d60d056f9f2504a47b45e4075fd43d3dad4175a138bd98966697bffc",
    "enumerate truncated --n 7 --k 2 --i 2 --render text":
        "04685c00d9076b223b72fe1dfa844778d0d8b1238dbe94fa253f8e1a67bd6104",
    # grid edges: an out-degree diagram with no rows, a multicaracol one with no columns
    "enumerate gravity --kind out --n 3 --k 2 --render text":
        "d89f0c1ff1e6ad8fca85371202f0fa83f547376a3cea7ca3c9f1b3dac929ce3d",
    "enumerate gravity --kind mcar-out --n 1 --k 2 --render text":
        "beb70956b137b9bc98b4b85d5b086164f652e96fb78d72e0fed994f99768dafd",
    "enumerate multilabeled --k 3 --r 3 --i 2 --render text":
        "0077c68f792c0cec45ef43068f317269a1753fe60b11f71b560bc94226ad119e",
    "enumerate dyck --a 5 --b 7 --render text":
        "99aae2d36c9f3e07158146986c7951a005e37f670571c0ce2ac65e2a3b8a6f04",
    "enumerate dyck --t 2,0,1,1 --render text":
        "353e3caece96b76275230283bab5ac9f34ae9d190f31cfdf084510a142a50cde",
    "enumerate truncated --n 7 --k 2 --i 0 --render text":
        "343cd624d05cd8e9d3f6c309285477d845899b091caaabe2f943571b01dbfdaf",
    # i = r: a tail with no segments
    "enumerate truncated --n 7 --k 2 --i 4 --render text":
        "9686425e0013152b3a15d99b12bc0be6aca8b062cb123458092271450dcd0bcf",
}


@pytest.mark.parametrize("argv, digest", DIGESTS.items(), ids=list(DIGESTS))
def test_json_listing_is_pinned_by_digest(capsys, argv, digest):
    assert cli.main(argv.split()) == 0
    out = WALL_TIME.sub("wall_time: -", capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_text_listings_build_no_record(monkeypatch, capsys):
    """Every golden and digest `--render text` listing still exits 0 when
    every record class, and the unchecked builder of every record,
    raises when it is called: no text line is drawn from a record."""
    def refuse(*args):
        raise AssertionError("a text listing built a record")

    for module, name in [(gravity, "GravityDiagram"), (gravity, "TDyckPath"), (paths, "TDyckPath"),
                         (paths, "MultiLabeledDyckPath"), (unified, "MultiLabeledDyckPath"),
                         (unified, "TruncatedDiagram"), (combinat.Record, "unchecked")]:
        monkeypatch.setattr(module, name, refuse)
    listings = [argv for argv in [*(argv for argv, _ in GOLDEN), *DIGESTS]
                if argv.startswith("enumerate") and "--render json" not in argv]
    assert len(listings) == 18
    for argv in listings:
        assert cli.main(argv.split()) == 0, argv
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["--help"], ["enumerate", "--help"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: flowpoly")


# argv -> its exact stdout at 80 columns
HELP = {
    "--help": (
        "usage: flowpoly [-h] {volume,kostant,tables,verify,enumerate} ...\n"
        "\n"
        "Exact flow-polytope volumes and the caracol-family combinatorial model\n"
        "\n"
        "positional arguments:\n"
        "  {volume,kostant,tables,verify,enumerate}\n"
        "    volume              normalized volume of a flow polytope\n"
        "    kostant             evaluate the Kostant partition function\n"
        "    tables              k-parking triangles and count tables\n"
        "    verify              run invariant suites at desk scale\n"
        "    enumerate           stream combinatorial objects\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    "volume --help": (
        "usage: flowpoly volume [-h] [--format {text,json}] [--out FILE] --graph GRAPH\n"
        "                       --netflow NETFLOW\n"
        "                       [--method {lidskii,terms,unified,closed,all}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {text,json}\n"
        "  --out FILE            write the report here instead of stdout\n"
        "  --graph GRAPH\n"
        "  --netflow NETFLOW\n"
        "  --method {lidskii,terms,unified,closed,all}\n"
    ),
    "kostant --help": (
        "usage: flowpoly kostant [-h] [--format {text,json}] [--out FILE] --graph GRAPH\n"
        "                        [--vector VECTOR] [--netflow NETFLOW]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {text,json}\n"
        "  --out FILE            write the report here instead of stdout\n"
        "  --graph GRAPH\n"
        "  --vector VECTOR       JSON list summing to zero\n"
        "  --netflow NETFLOW\n"
    ),
    "tables --help": (
        "usage: flowpoly tables [-h] [--format {text,json,csv}] [--out FILE] [--k K]\n"
        "                       [--rmax RMAX] [--nmax NMAX]\n"
        "                       {parking,gravity-counts}\n"
        "\n"
        "positional arguments:\n"
        "  {parking,gravity-counts}\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {text,json,csv}\n"
        "  --out FILE            write the report here instead of stdout\n"
        "  --k K\n"
        "  --rmax RMAX\n"
        "  --nmax NMAX\n"
    ),
    "verify --help": (
        "usage: flowpoly verify [-h] [--format {text,json}] [--out FILE] [--n N]\n"
        "                       [--k K] [--N N] [--simplex-k SIMPLEX_K]\n"
        "                       {bijections,lidskii,simplex,orbits,all}\n"
        "\n"
        "positional arguments:\n"
        "  {bijections,lidskii,simplex,orbits,all}\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {text,json}\n"
        "  --out FILE            write the report here instead of stdout\n"
        "  --n N\n"
        "  --k K\n"
        "  --N N\n"
        "  --simplex-k SIMPLEX_K\n"
    ),
    "enumerate --help": (
        "usage: flowpoly enumerate [-h] [--format {text,json}] [--out FILE]\n"
        "                          [--kind {in,out,mcar-out}] [--n N] [--k K] [--r R]\n"
        "                          [--i I] [--a A] [--b B] [--t T] [--graph GRAPH]\n"
        "                          [--netflow NETFLOW] [--render {text,json}]\n"
        "                          [--cap CAP]\n"
        "                          {gravity,dyck,unified,truncated,multilabeled}\n"
        "\n"
        "positional arguments:\n"
        "  {gravity,dyck,unified,truncated,multilabeled}\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {text,json}\n"
        "  --out FILE            write the report here instead of stdout\n"
        "  --kind {in,out,mcar-out}\n"
        "  --n N\n"
        "  --k K\n"
        "  --r R\n"
        "  --i I\n"
        "  --a A\n"
        "  --b B\n"
        "  --t T                 comma-separated reference shape\n"
        "  --graph GRAPH\n"
        "  --netflow NETFLOW\n"
        "  --render {text,json}\n"
        "  --cap CAP\n"
    ),
}


@pytest.mark.parametrize("argv, text", HELP.items(), ids=list(HELP))
def test_help_text_is_pinned(capsys, monkeypatch, argv, text):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr() == (text, "")


# argv -> (exit status, stdout, stderr) of a usage error, or of help asked
# before the command
USAGE = {
    "": (2, "", "error: the following arguments are required: command\n"),
    "volum": (2, "", "error: argument command: invalid choice: 'volum' (choose from "
                     "'volume', 'kostant', 'tables', 'verify', 'enumerate')\n"),
    "-h volume": (0, HELP["--help"], ""),
    "volume": (2, "", "error: the following arguments are required: --graph, --netflow\n"),
}


@pytest.mark.parametrize("argv, outcome", USAGE.items(), ids=list(USAGE))
def test_usage_error_text_is_pinned(capsys, monkeypatch, argv, outcome):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = outcome
    assert cli.main(argv.split()) == code
    assert capsys.readouterr() == (out, err)


PARSED = [
    *(argv.split() for argv, _ in GOLDEN), *(argv.split() for argv in DIGESTS),
    *(argv.split() for argv in HELP), *(argv.split() for argv in USAGE),
    *(shlex.split(line, comments=True)[1:] for line in examples()),
]


@pytest.mark.parametrize("argv", PARSED, ids=[" ".join(argv) for argv in PARSED])
def test_the_named_command_parser_reads_argv_as_the_full_one(capsys, argv):
    """The parser main() builds for argv[0] alone gives the same namespace,
    help text or usage error as the one with every command."""
    def parse(parser):
        try:
            got = vars(parser.parse_args(argv))
        except (SystemExit, InputError) as exc:
            got = repr(exc)
        return got, capsys.readouterr()

    assert parse(cli.build_parser(argv[0] if argv else None)) == parse(cli.build_parser())
