"""End-to-end runs of the command line through main()."""

import contextlib
import hashlib
import io
import json
import os
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from weylzeta import cli, repdegrees, rootsys
from weylzeta._linalg import echelon
from weylzeta.cli import (
    CACHE_ENV,
    COMMANDS,
    MAX_RANK,
    _build_parser,
    _cache_path,
    _parse_args,
    _parse_group,
    _quick,
    _trailer,
    _unsealed,
    main,
)
from weylzeta.repdegrees import DegreeTable

from oracles import su3_code_group, su3_code_words, truncated


def _sealed(body: bytes) -> bytes:
    """A table's bytes as the cache stores them, closed by a checksum trailer."""
    return body + _trailer(body)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_f4_fundamental(capsys):
    code, out, _ = run(capsys, "dims", "--type", "F4", "--weight", "1,0,0,0")
    assert code == 0
    assert out.strip() == "52"


def test_dims_rejects_wrong_length(capsys):
    code, _, err = run(capsys, "dims", "--type", "F4", "--weight", "1,0")
    assert code == 2
    assert "4 coordinates" in err


def test_dims_rejects_negative(capsys):
    code, _, _ = run(capsys, "dims", "--type", "A2", "--weight", "1,-1")
    assert code == 2


def test_info_lists_invariants(capsys):
    code, out, _ = run(capsys, "info", "--type", "G2")
    assert code == 0
    assert "roots: 12" in out
    assert "positive roots: 6" in out
    assert "eff: 1/5" in out
    assert "lev: 1" in out
    assert "-3" in out  # the long-to-short Cartan entry


def test_zeta_su2_small(capsys):
    code, out, _ = run(capsys, "zeta", "--group", "A1:sc", "--max-dim", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# weylzeta v1 group=A1:sc variant=zeta maxdim=5"
    assert lines[1:] == ["1\t1", "2\t1", "3\t1", "4\t1", "5\t1"]


def test_zeta_star_drops_disallowed(capsys):
    code, out, _ = run(capsys, "zeta-star", "--group", "A1:sc", "--max-dim", "10")
    assert code == 0
    dims = [int(ln.split("\t")[0]) for ln in out.splitlines()[1:]]
    assert dims == [1, 2, 4, 8]


def test_zeta_out_file(tmp_path, capsys):
    target = tmp_path / "table.tsv"
    code, out, _ = run(capsys, "zeta", "--group", "A2:sc", "--max-dim", "10",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    table = DegreeTable.from_text(target.read_text())
    assert table.counts[3] == 2


def test_zeta_out_in_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "table.tsv"
    code, out, err = run(capsys, "zeta", "--group", "A2:sc", "--max-dim", "10",
                         "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.parent.exists()


def test_zeta_cache_on_regular_file(tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("x")
    code, out, err = run(capsys, "zeta", "--group", "A2:sc", "--max-dim", "10",
                         "--cache", str(blocker))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert blocker.read_text() == "x"


def test_zeta_deterministic_output(capsys):
    _, first, _ = run(capsys, "zeta", "--group", "A1xA2:sc", "--max-dim", "40")
    _, second, _ = run(capsys, "zeta", "--group", "A1xA2:sc", "--max-dim", "40")
    assert first == second


def test_zeta_rejects_bad_group(capsys):
    code, _, err = run(capsys, "zeta", "--group", "Q9:sc", "--max-dim", "5")
    assert code == 2
    assert "error" in err


def test_zeta_rejects_zero_denominator_coset(capsys):
    code, _, err = run(capsys, "zeta", "--group", "A1:cosets[1/0]", "--max-dim", "10")
    assert code == 2
    assert err.startswith("error:")


def test_zeta_rejects_nonpositive_bound(capsys):
    code, _, _ = run(capsys, "zeta", "--group", "A1:sc", "--max-dim", "0")
    assert code == 2


def test_cache_written_then_reused(tmp_path, capsys):
    cache = tmp_path / "cache"
    code, fresh, _ = run(capsys, "zeta", "--group", "A2:sc", "--max-dim", "20",
                         "--cache", str(cache))
    assert code == 0
    files = list(cache.glob("*.tsv"))
    assert len(files) == 1

    # Doctor the cached table and seal it again; a smaller request must come
    # from the file, truncated to the new bound.
    body = _unsealed(files[0].read_bytes()).decode()
    files[0].write_bytes(_sealed(body.replace("3\t2", "3\t99").encode()))
    code, out, _ = run(capsys, "zeta", "--group", "A2:sc", "--max-dim", "10",
                       "--cache", str(cache))
    assert code == 0
    assert "3\t99" in out
    assert out.splitlines()[0].endswith("maxdim=10")
    assert all(int(ln.split("\t")[0]) <= 10 for ln in out.splitlines()[1:])

    # A larger request cannot reuse the file and recomputes honestly.
    code, out, _ = run(capsys, "zeta", "--group", "A2:sc", "--max-dim", "30",
                       "--cache", str(cache))
    assert code == 0
    assert "3\t2" in out


def test_cache_respects_variant_and_group(tmp_path, capsys):
    cache = tmp_path / "cache"
    run(capsys, "zeta", "--group", "A1:sc", "--max-dim", "20",
        "--cache", str(cache))
    # same group, other variant: must not reuse the zeta file
    code, out, _ = run(capsys, "zeta-star", "--group", "A1:sc", "--max-dim", "10",
                       "--cache", str(cache))
    assert code == 0
    dims = [int(ln.split("\t")[0]) for ln in out.splitlines()[1:]]
    assert dims == [1, 2, 4, 8]
    assert len(list(cache.glob("*.tsv"))) == 2


def test_cache_reads_only_its_own_file(tmp_path, capsys):
    _, fresh, _ = run(capsys, "zeta", "--group", "A2:sc", "--max-dim", "20")
    cache = tmp_path / "cache"
    cache.mkdir()
    canonical = _cache_path(cache, "A2:sc", "zeta")
    canonical.write_bytes(b"\xff\xfe not a table")
    # a well-formed table for the same key under a foreign name is not read
    foreign = "# weylzeta v1 group=A2:sc variant=zeta maxdim=50\n3\t99\n"
    (cache / "foreign.tsv").write_text(foreign)
    code, out, _ = run(capsys, "zeta", "--group", "A2:sc", "--max-dim", "20",
                       "--cache", str(cache))
    assert code == 0
    assert out == fresh
    assert canonical.read_bytes() == _sealed(fresh.encode())
    # the write went through a temporary file that is gone
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        ["foreign.tsv", canonical.name])


def test_cache_cut_at_line_boundary_is_a_miss(tmp_path, capsys):
    cache = tmp_path / "cache"
    _, fresh, _ = run(capsys, "zeta", "--group", "A2:sc", "--max-dim", "1000",
                      "--cache", str(cache))
    path = _cache_path(cache, "A2:sc", "zeta")
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == len(fresh.splitlines()) + 1  # the trailer
    for keep in (10, len(lines) - 1):
        # a well-formed table with a valid header, cut short
        path.write_text("".join(lines[:keep]))
        code, out, _ = run(capsys, "zeta", "--group", "A2:sc", "--max-dim", "1000",
                           "--cache", str(cache))
        assert code == 0
        assert out == fresh
        assert path.read_bytes() == _sealed(fresh.encode())  # recomputed and rewritten


def test_cache_trailer_checks_body():
    body = "# weylzeta v1 group=A1:sc variant=zeta maxdim=3\n1\t1\n2\t1\n3\t1\n"
    sealed = _sealed(body.encode()).decode()
    assert sealed.startswith(body)
    assert sealed[len(body):].startswith("# entries=3 sha256=")
    assert _unsealed(sealed.encode()) == body.encode()
    for bad in (body, sealed.replace("2\t1", "2\t2"), sealed[:-2] + "\n",
                sealed + "4\t1\n", ""):
        with pytest.raises(ValueError):
            _unsealed(bad.encode())


@pytest.mark.parametrize("command, group, key", [
    ("zeta", "A2:sc", ("A2:adjoint", "zeta")),
    ("zeta-star", "A2:sc", ("A2:sc", "zeta")),
])
def test_cache_header_must_name_the_key(tmp_path, capsys, command, group, key):
    # a sealed table for another group or variant under this key's file name
    cache = tmp_path / "cache"
    _, fresh, _ = run(capsys, command, "--group", group, "--max-dim", "40")
    run(capsys, "zeta", "--group", key[0], "--max-dim", "80", "--cache", str(cache))
    [other] = cache.iterdir()
    path = _cache_path(cache, "A2:sc", command.replace("-", "_"))
    other.rename(path)
    code, out, _ = run(capsys, command, "--group", group, "--max-dim", "40",
                       "--cache", str(cache))
    assert (code, out) == (0, fresh)
    assert path.read_bytes() == _sealed(fresh.encode())


@pytest.mark.parametrize("row", [
    "3\tx", "3\t2\t1", "3", "", "\t2", "3\t", "3 \t2", "-3\t2", "+3\t2",
    "3\t\u0662", "3\t2\r", "3\t2\x0b4\t1",
], ids=repr)
@pytest.mark.parametrize("where", ["3\t2", "15\t4"], ids=["served", "beyond_bound"])
def test_cache_malformed_row_is_a_miss(tmp_path, capsys, row, where):
    # a resealed body whose rows are not all integer pairs, inside or beyond
    # the requested bound, is recomputed and rewritten, never a traceback
    cache = tmp_path / "cache"
    run(capsys, "zeta", "--group", "A2:sc", "--max-dim", "20", "--cache", str(cache))
    path = _cache_path(cache, "A2:sc", "zeta")
    body = _unsealed(path.read_bytes()).decode()
    assert f"\n{where}\n" in body
    path.write_bytes(_sealed(body.replace(f"\n{where}\n", f"\n{row}\n").encode()))
    _, fresh, _ = run(capsys, "zeta", "--group", "A2:sc", "--max-dim", "10")
    code, out, err = run(capsys, "zeta", "--group", "A2:sc", "--max-dim", "10",
                         "--cache", str(cache))
    assert (code, out, err) == (0, fresh, "")
    assert path.read_bytes() == _sealed(fresh.encode())


@pytest.mark.parametrize("group", [
    "A1:sc", "A2:adjoint", "A1xA1:cosets[0,0;1/2,1/2]", "G2xA2:sc", "D4:sc",
])
@pytest.mark.parametrize("command", ["zeta", "zeta-star"])
def test_cache_hit_matches_fresh_table(tmp_path, capsys, monkeypatch, command, group):
    top = 300
    cache = tmp_path / "cache"
    run(capsys, command, "--group", group, "--max-dim", str(top), "--cache", str(cache))
    [path] = cache.glob("*.tsv")
    stored = path.read_bytes()
    table = DegreeTable.from_text(_unsealed(stored).decode())
    fresh = [run(capsys, command, "--group", group, "--max-dim", str(b))[1]
             for b in range(1, top + 1)]

    def no_compute(*args):
        raise AssertionError("a cache hit computed the table")

    monkeypatch.setattr(cli, "zeta_coefficients", no_compute)
    monkeypatch.setattr(cli, "zeta_star_coefficients", no_compute)
    for b in range(1, top + 1):
        code, out, _ = run(capsys, command, "--group", group, "--max-dim", str(b),
                           "--cache", str(cache))
        assert code == 0
        assert out == fresh[b - 1] == truncated(table, b).to_text(), b
    assert path.read_bytes() == stored


@pytest.mark.parametrize("group", ["A1:sc", "G2xA2:sc"])
@pytest.mark.parametrize("command", ["zeta", "zeta-star"])
def test_cache_cut_at_digit_length_edges(tmp_path, capsys, monkeypatch, command, group):
    # the cut is found by bisecting line offsets; bounds around 10^k move it
    # across rows whose lines change length
    bounds = [1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 1199, 1200]
    cache = tmp_path / "cache"
    run(capsys, command, "--group", group, "--max-dim", "1200", "--cache", str(cache))
    fresh = [run(capsys, command, "--group", group, "--max-dim", str(b))[1] for b in bounds]

    def no_compute(*args):
        raise AssertionError("a cache hit computed the table")

    monkeypatch.setattr(cli, "zeta_coefficients", no_compute)
    monkeypatch.setattr(cli, "zeta_star_coefficients", no_compute)
    served = [run(capsys, command, "--group", group, "--max-dim", str(b),
                  "--cache", str(cache)) for b in bounds]
    assert served == [(0, out, "") for out in fresh]


@pytest.mark.parametrize("old, new", [
    (b"maxdim=20\n", b"maxdim=20\xff\n"), (b"\n15\t4\n", b"\n15\t\xff4\n"),
], ids=["header", "beyond_bound"])
def test_cache_undecodable_byte_is_a_miss(tmp_path, capsys, old, new):
    cache = tmp_path / "cache"
    run(capsys, "zeta", "--group", "A2:sc", "--max-dim", "20", "--cache", str(cache))
    path = _cache_path(cache, "A2:sc", "zeta")
    body = _unsealed(path.read_bytes())
    assert body.count(old) == 1
    path.write_bytes(_sealed(body.replace(old, new)))
    _, fresh, _ = run(capsys, "zeta", "--group", "A2:sc", "--max-dim", "10")
    code, out, err = run(capsys, "zeta", "--group", "A2:sc", "--max-dim", "10",
                         "--cache", str(cache))
    assert (code, out, err) == (0, fresh, "")
    assert path.read_bytes() == _sealed(fresh.encode())


def test_cache_long_group_name(tmp_path, capsys, monkeypatch):
    # SU(3)^7 over the 27 words of a ternary [7, 3] code: a 1,288-character
    # canonical name, whose file name is cut to fit the file system
    group = su3_code_group(su3_code_words())
    cache = tmp_path / "cache"
    _, fresh, _ = run(capsys, "zeta", "--group", group, "--max-dim", "30")
    assert run(capsys, "zeta", "--group", group, "--max-dim", "30",
               "--cache", str(cache)) == (0, fresh, "")
    [path] = cache.iterdir()
    assert len(os.fsencode(path.name)) <= 255
    monkeypatch.setattr(cli, "zeta_coefficients", None)  # a hit computes nothing
    assert run(capsys, "zeta", "--group", group, "--max-dim", "30",
               "--cache", str(cache)) == (0, fresh, "")


def test_parser_reused_across_calls(tmp_path, capsys):
    target = tmp_path / "table.tsv"
    first = ("zeta", "--group", "A2:sc", "--max-dim", "30", "--out", str(target))
    calls = [
        first,
        first[:-2],  # no --out: prints, so no value stays from the last call
        ("zeta", "--group", "A2:sc"),  # missing --max-dim: exit 2
        ("--help",),
        first,
        (*first[:-2], "--bogus", "1"),  # unrecognized: exit 2 with zeta's usage
        ("zeta", "-h"),
        first,
    ]
    assert _build_parser() is _build_parser()
    reused = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0, 2, 0, 0]
    assert reused[0][1] == reused[4][1] == reused[7][1] == ""
    assert target.read_text() == reused[1][1]
    assert reused[1][1].startswith("# weylzeta v1 group=A2:sc variant=zeta maxdim=30\n")
    assert reused[5][2].startswith("usage: weylzeta zeta ")
    assert reused[6][1].startswith("usage: weylzeta zeta ")
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        _parse_group.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh


# -- a known command parsed by its own parser ------------------------------------

# argv for every command, valid and broken, each read by the dispatch in
# main and by the top-level parser alone
DISPATCH_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["--help", "zeta"],
    ["bogus"],
    ["bogus", "--group", "A1:sc"],
    ["--group", "A1:sc", "zeta"],
    ["info", "--type", "G2"],
    ["info", "--ty", "G2"],
    ["info"],
    ["info", "-h"],
    ["dims", "--type", "F4", "--weight", "1,0,0,0"],
    ["dims", "--type", "F4"],
    ["dims", "--type", "F4", "--type", "B4", "--weight", "1,0,0,0"],
    ["dims", "--type", "F4", "--weight", "-1,0,0,0"],
    ["dims", "--weight", "1,0,0,0", "--type", "F4"],
    ["zeta", "--group", "A1:sc", "--max-dim", "5"],
    ["zeta", "--gr", "A1:sc", "--max", "5"],
    ["zeta", "--group", "A1:sc", "--max-dim", "5", "--out", "t.tsv", "--cache", "c"],
    ["zeta", "--group=A1:sc", "--max-dim=5"],
    ["zeta", "--group", "A1:sc", "--group", "A2:sc", "--max-dim", "5"],
    ["zeta", "--group", "A1:sc"],
    ["zeta", "--group", "A1:sc", "--max-dim", "five"],
    ["zeta", "--group", "A1:sc", "--max-dim", "10", "--bogus", "1"],
    ["zeta", "--group", "A1:sc", "--max-dim", "10", "extra"],
    ["zeta", "--max-dim", "5", "--cache", "c", "--group", "A1:sc"],
    ["zeta", "--group", "", "--max-dim", "5"],
    ["zeta", "--group", "A1:sc", "--max-dim", " 7 "],
    ["zeta", "--group", "A1:sc", "--max-dim", "1_000"],
    ["zeta", "--group", "A1:sc", "--max-dim", "--out"],
    ["zeta", "--group"],
    ["zeta", "-h"],
    ["zeta", "--help"],
    ["zeta", "--group", "A1:sc", "-h"],
    ["zeta"],
    ["zeta-star", "--group", "A1:sc", "--max-dim", "64", "--cache", "c"],
    ["zeta-star", "--max-dim", "64"],
    ["zeta-star", "--gr", "A1:sc", "--max-dim", "64", "--bogus"],
    ["zeta-star", "-h"],
    ["weylpoly", "--type", "G2", "--mu", "1,0", "--nu=-2,0", "--eval", "2"],
    ["weylpoly", "--type", "G2", "--mu=1,0", "--nu", "-2,0"],
    ["weylpoly", "--type", "E7", "--ev", "2,3"],
    ["weylpoly", "--type", "G2", "--eval", "2", "--eval", "3"],
    ["weylpoly", "--eval", "2"],
    ["weylpoly", "-h"],
    ["efficiency", "--type", "E7", "--brute-force"],
    ["efficiency", "--type", "E7", "--brute"],
    ["efficiency", "--type", "E7", "--brute-force=yes"],
    ["efficiency", "--brute-force"],
    ["efficiency", "-h"],
    ["compare", "--first", "A3", "--second", "D4"],
    ["compare", "--fi", "A3", "--sec", "D4"],
    ["compare", "--first", "A3"],
    ["compare", "--first", "A3", "--second", "D4", "--third", "B2"],
    ["compare", "-h"],
    ["gassmann", "--max-degree", "100"],
    ["gassmann", "--max", "100"],
    ["gassmann", "--max-degree", "-5"],
    ["gassmann", "--max-degree", "1e3"],
    ["gassmann"],
    ["gassmann", "-h"],
    ["verify-paper"],
    ["verify-paper", "--fast", "--json"],
    ["verify-paper", "--fa", "--js"],
    ["verify-paper", "--fast", "--fast"],
    ["verify-paper", "--json", "--json"],
    ["verify-paper", "--slow"],
    ["verify-paper", "-h"],
]


def _read(parse, argv):
    """(exit code or None, stdout, stderr, the Namespace's fields or None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            fields, code = vars(parse(list(argv))), None
        except SystemExit as exc:
            fields, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), fields


def _check_dispatch(argv):
    """_parse_args reads argv as the top-level parser does."""
    parser, commands = _build_parser()
    code, out, err, fields = _read(_parse_args, argv)
    o_code, o_out, o_err, o_fields = _read(parser.parse_args, argv)
    assert (code, out, fields) == (o_code, o_out, o_fields)
    if fields is None:
        assert code == 2 or (code == 0 and out.startswith("usage: ") and not err)
    unrecognized = o_err.partition(": error: ")[2]
    if code and unrecognized.startswith("unrecognized arguments: ") and argv[0] in commands:
        # the one message that differs: the command's usage, not the top level's
        assert o_err.endswith(f"\nweylzeta: error: {unrecognized}")
        assert err.startswith(f"usage: weylzeta {argv[0]} ")
        assert err.endswith(f"\nweylzeta {argv[0]}: error: {unrecognized}")
    else:
        assert err == o_err
    if fields is not None:
        assert code is None and (out, err) == ("", "")
        assert fields["command"] == argv[0] and callable(fields["func"])


def test_dispatch_cases_cover_every_command():
    _, commands = _build_parser()
    assert set(commands) <= {argv[0] for argv in DISPATCH_CASES if argv}


@pytest.mark.parametrize("argv", DISPATCH_CASES, ids=" ".join)
def test_dispatch_matches_top_level_parser(argv):
    _check_dispatch(argv)


# the tokens a command line is drawn from: each flag exact, cut short or in
# its = form, -h, --, and values argparse reads in different ways
_VALUES = ["5", " 7 ", "1_000", "-5", "five", "", "A1:sc", "-2,0"]
_READ = {int: ["5", " 7 ", "1_000"], str: ["", "five", "A1:sc"]}  # values _quick takes


@st.composite
def _command_lines(draw):
    name = draw(st.sampled_from(list(COMMANDS)))
    flags = [flag for flag, *_ in COMMANDS[name][2]]
    flag, value = st.sampled_from(flags), st.sampled_from(_VALUES)
    pair = st.tuples(flag, value)  # most often a flag and a value, as written
    item = st.one_of(
        pair, pair, pair, st.tuples(flag),
        st.builds(lambda f, k, v: (f[:k], v), flag, st.integers(3, 8), value),
        st.builds(lambda f, v: (f"{f}={v}",), flag, value),
        st.tuples(st.sampled_from(["-h", "--", "--bogus", *_VALUES])),
    )
    parts = draw(st.lists(item, max_size=4))
    if draw(st.booleans()):  # every required option, with a value that reads
        parts += [(flag, draw(st.sampled_from(_READ[kind])))
                  for flag, kind, required, *_ in COMMANDS[name][2] if required]
    return [name, *(token for part in draw(st.permutations(parts)) for token in part)]


@settings(max_examples=300, deadline=None)
@given(_command_lines())
def test_quick_reads_as_the_command_parser_does(argv):
    # whatever _quick accepts, the command's own parser reads alike; anything
    # else goes to argparse, which reads as the top-level parser does
    args = _quick(argv)
    if args is not None:
        _, commands = _build_parser()
        expect = commands[argv[0]].parse_args(argv[1:], SimpleNamespace(command=argv[0]))
        assert vars(args) == vars(expect)
    _check_dispatch(argv)


def test_quick_reads_well_formed_lines_only():
    # an exact, complete command line is read without argparse; the rest is not
    read = [["zeta", "--max-dim", "5", "--group", "A1:sc", "--max-dim", " 7 "],
            ["verify-paper", "--json", "--json"], ["verify-paper"],
            ["efficiency", "--brute-force", "--type", "E6"]]
    assert [vars(_quick(argv)) for argv in read] == [
        {"command": "zeta", "func": cli._cmd_zeta, "group": "A1:sc", "max_dim": 7,
         "out": None, "cache": None},
        {"command": "verify-paper", "func": cli._cmd_verify, "fast": False, "json": True},
        {"command": "verify-paper", "func": cli._cmd_verify, "fast": False, "json": False},
        {"command": "efficiency", "func": cli._cmd_efficiency, "type": "E6",
         "brute_force": True}]
    left = [[], ["-h"], ["bogus"], ["zeta"], ["zeta", "--group", "A1:sc"], ["verify-paper", "-h"]]
    left += [["zeta", "--group", "A1:sc", *tail] for tail in (
        ["--max-dim=5"], ["--max", "5"], ["--max-dim", "-5"], ["--max-dim", "five"],
        ["--max-dim"], ["--max-dim", "5", "--"], ["--max-dim", "5", "x"])]
    assert [_quick(argv) for argv in left] == [None] * len(left)


def test_help_lists_every_command_and_option(capsys):
    # read with its whitespace folded, so argparse's line wrapping on any
    # version or terminal width does not matter
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "") and out.startswith("usage: weylzeta ")
    text = " ".join(out.split())
    for name, (help_text, _, _) in COMMANDS.items():
        assert f" {name} {help_text} " in f"{text} "
    for name, (_, _, options) in COMMANDS.items():
        code, out, err = run(capsys, name, "-h")
        assert (code, err) == (0, "") and out.startswith(f"usage: weylzeta {name} ")
        text = " ".join(out.split())
        for flag, _, _, metavar, help_text in options:
            shown = " ".join(filter(None, [flag, metavar, help_text]))
            assert f" {shown} " in f"{text} ", shown


# -- each group text parsed once per process ---------------------------------------


def test_bad_group_fails_alike_every_time(capsys):
    size = _parse_group.cache_info().currsize
    errors = []
    for group in ("A1:cosets[1/2]", "A1:cosets[1/2]", "A1xB7:bogus", "A1xB7:bogus"):
        code, out, err = run(capsys, "zeta", "--group", group, "--max-dim", "10")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        errors.append(err)
    assert errors[0] == errors[1] != errors[2] == errors[3]
    assert _parse_group.cache_info().currsize == size  # a ValueError is not kept


def test_rank_cap_after_a_valid_group(capsys):
    big = f"A{MAX_RANK + 1}"
    for group in (f"A{MAX_RANK}:sc", f"{big}:sc", f"A1x{big}:adjoint", f"{big}:sc"):
        code, out, err = run(capsys, "zeta", "--group", group, "--max-dim", "3")
        if big in group:
            assert (code, out) == (2, "")
            assert f"limit of {MAX_RANK}" in err
        else:
            assert (code, err) == (0, "")


def test_group_memo_is_bounded(capsys):
    key = "zeta --group A1xA1:cosets[0,0;1/2,1/2] --max-dim 1000"
    runs = [key.split()]
    runs += [["zeta", "--group", "x".join(["A1"] * k) + ":sc", "--max-dim", "2"]
             for k in range(1, 71)]
    runs.append(key.split())
    for argv in runs:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _REFERENCE[key]
    assert _parse_group.cache_info().currsize == 64


def test_cache_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    code, _, _ = run(capsys, "zeta", "--group", "A1:sc", "--max-dim", "12")
    assert code == 0
    assert len(list(tmp_path.glob("*.tsv"))) == 1


def test_type_rank_cap(capsys):
    over = f"A{MAX_RANK + 1}"
    for argv in (["info", "--type", over], ["dims", "--type", over, "--weight", "0"],
                 ["compare", "--first", "A2", "--second", f"D{MAX_RANK + 1}"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"limit of {MAX_RANK}" in err
    code, out, _ = run(capsys, "dims", "--type", f"A{MAX_RANK}",
                       "--weight", ",".join(["1"] + ["0"] * (MAX_RANK - 1)))
    assert (code, out.strip()) == (0, str(MAX_RANK + 1))


def test_gassmann_degree_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_DEGREE", 40)
    code, out, err = run(capsys, "gassmann", "--max-degree", "41")
    assert (code, out) == (2, "")
    assert "limit of 40" in err and "Traceback" not in err
    code, out, _ = run(capsys, "gassmann", "--max-degree", "40")
    assert (code, out.splitlines()[-1]) == (0, "PASS")


@pytest.mark.parametrize("command,group,bound,refused,admitted", [
    ("zeta", "A1:sc", 100, 100, 101),  # one list of 101 slots
    ("zeta-star", "A1:sc", 1000, 9, 10),  # a dict of 10 terms, not 1,001 slots
    ("zeta-star", "A2:sc", 2000, 481, 482),  # a walk of 482 weights
    ("zeta", "E8xE8:sc", 10**7, 29, 30),  # walks of 12 weights; a square of 30 pairs
    ("zeta", "A2xA2:sc", 10**5, 26890, 26891),  # walks of 7,756; a product dict of 26,891 pairs
])
def test_entry_cap(tmp_path, capsys, monkeypatch, command, group, bound, refused, admitted):
    # the cap counts entries, not the bound: over it nothing is printed,
    # written or cached; at it the table is the uncapped one
    argv = [command, "--group", group, "--max-dim", str(bound)]
    code, expect, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(repdegrees, "MAX_ENTRIES", refused)
    out_file, cache = tmp_path / "t.tsv", tmp_path / "cache"
    for extra in ([], ["--out", str(out_file)], ["--cache", str(cache)]):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and f"more than {refused} entries" in err
        assert "Traceback" not in err
    assert not out_file.exists() and not cache.exists()
    monkeypatch.setattr(repdegrees, "MAX_ENTRIES", admitted)
    assert run(capsys, *argv) == (0, expect, "")


def test_sieve_budget(tmp_path, capsys, monkeypatch):
    # zeta-star's strip sieve for A1 runs to the bound: past MAX_SIEVE slots
    # nothing is sieved, printed, written or cached; at it the table is the
    # unlimited one
    argv = ["zeta-star", "--group", "A1:sc", "--max-dim", "1000"]
    code, expect, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(repdegrees, "MAX_SIEVE", 999)
    monkeypatch.setattr(repdegrees, "_primes", None)  # a refused sieve allocates nothing
    out_file, cache = tmp_path / "t.tsv", tmp_path / "cache"
    for extra in ([], ["--out", str(out_file)], ["--cache", str(cache)]):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "more than 999 slots" in err
        assert "Traceback" not in err
    assert not out_file.exists() and not cache.exists()
    monkeypatch.undo()
    monkeypatch.setattr(repdegrees, "MAX_SIEVE", 1000)
    assert run(capsys, *argv) == (0, expect, "")


@pytest.mark.parametrize("command", ["zeta", "zeta-star"])
@pytest.mark.parametrize("group", ["A1:sc", "A1:adjoint"])
def test_huge_a1_bound_is_refused(capsys, command, group):
    # a bound past 2^63 is refused by the entry cap or the sieve budget
    # before any series or sieve is allocated
    code, out, err = run(capsys, command, "--group", group, "--max-dim", str(10**22))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_group_rank_cap(capsys):
    big = MAX_RANK + 1
    coset = ",".join(["0"] * (big + 1))
    for cmd, group in (("zeta", f"A1xB{big}:sc"), ("zeta-star", f"A{big}:adjoint"),
                       ("zeta", f"A1xA{big}:cosets[{coset}]"), ("zeta", "A3000")):
        code, out, err = run(capsys, cmd, "--group", group, "--max-dim", "10")
        assert (code, out) == (2, "")
        assert f"limit of {MAX_RANK}" in err
    code, out, _ = run(capsys, "zeta", "--group", f"A1xA{MAX_RANK}:sc", "--max-dim", "3")
    assert (code, out.splitlines()[1:]) == (0, ["1\t1", "2\t1", "3\t1"])


def test_weylpoly_explicit_default(capsys):
    code, out, _ = run(capsys, "weylpoly", "--type", "A2", "--eval", "1,2")
    assert code == 0
    assert "coefficients: [0, 1/2, 1/2]" in out
    assert "ord: 1" in out
    assert "deg: 2" in out
    assert "P(1) = 1" in out
    assert "P(2) = 3" in out


def test_weylpoly_custom_pair(capsys):
    code, out, _ = run(capsys, "weylpoly", "--type", "A1",
                       "--mu", "1", "--nu", "0", "--eval", "7")
    assert code == 0
    assert "P(7) = 8" in out  # dim of the weight-7 irreducible of su(2)


def test_weylpoly_negative_nu_in_equals_form(capsys):
    # argparse reads "-2,0" after a space as an option, so the = form is the way in
    code, out, _ = run(capsys, "weylpoly", "--type", "G2", "--mu", "1,0", "--nu=-2,0",
                       "--eval", "2")
    assert code == 0
    assert "P(2) = 1" in out


def test_weylpoly_flag_conflicts(capsys):
    code, _, _ = run(capsys, "weylpoly", "--type", "A2", "--mu", "1,0")
    assert code == 2


def test_weylpoly_bad_eval_prints_nothing(capsys):
    code, out, err = run(capsys, "weylpoly", "--type", "A2", "--mu", "1,0", "--nu", "0,0",
                         "--eval", "1/2")
    assert code == 2
    assert out == ""
    assert "--eval" in err


def test_efficiency_with_witness(capsys):
    code, out, _ = run(capsys, "efficiency", "--type", "G2", "--brute-force")
    assert code == 0
    assert "eff: 1/5" in out
    assert "brute-force eff: 1/5" in out
    assert "witness: A1 | A1" in out


@pytest.mark.parametrize("name", ["E8", "B8"])
def test_efficiency_refusal_prints_nothing(capsys, name):
    code, out, err = run(capsys, "efficiency", "--type", name, "--brute-force")
    assert (code, out) == (2, "")
    assert "exhaustive search is limited to 63" in err


def test_efficiency_flat_refusal_prints_nothing(capsys):
    code, out, err = run(capsys, "efficiency", "--type", "A10", "--brute-force")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "more than 200000 full subsystems" in err
    assert "Traceback" not in err


def test_compare_orders_types(capsys):
    code, out, _ = run(capsys, "compare", "--first", "A3", "--second", "D4")
    assert (code, out.strip()) == (0, "greater")
    code, out, _ = run(capsys, "compare", "--first", "B4", "--second", "C4")
    assert (code, out.strip()) == (0, "equivalent")
    code, out, _ = run(capsys, "compare", "--first", "B2", "--second", "A2")
    assert (code, out.strip()) == (0, "less")


def test_gassmann_report(capsys):
    code, out, _ = run(capsys, "gassmann", "--max-degree", "200")
    assert code == 0
    assert "n: 128" in out
    assert "zeta tables equal up to 200: true" in out
    assert "permutation equivalent: false" in out
    assert "PASS" in out


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "dims", "--type", "F4")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_verify_fast_ledger(capsys):
    code, out, _ = run(capsys, "verify-paper", "--fast")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert all(ln.startswith("PASS ") for ln in lines)


def test_verify_json_ledger(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert all(set(c) == {"title", "passed", "seconds", "detail"} for c in checks)
    assert all(c["passed"] and c["detail"] == "" and c["seconds"] >= 0 for c in checks)
    code, out, _ = run(capsys, "verify-paper")
    titles = [ln.removeprefix("PASS ") for ln in out.strip().splitlines()]
    assert (code, len(titles)) == (0, 10)
    assert [c["title"] for c in checks] == titles


# -- stdout pinned by the benchmark's reference hashes -------------------------

_REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
)


@pytest.mark.parametrize("key", sorted(
    k for k in _REFERENCE
    if k.split()[0] in ("zeta", "zeta-star", "gassmann", "verify-paper")))
def test_stdout_matches_reference_hash(capsys, key):
    # every spectrum job the benchmark runs, full size, and the ten ledger
    # lines of verify-paper with and without --fast, against the sha256 of
    # their stdout recorded from trusted code; the reference file is only read
    code, out, err = run(capsys, *key.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _REFERENCE[key]


def test_inverse_cartan_is_eliminated_on_first_read_only(capsys, monkeypatch):
    # fresh root systems, and fresh caches of what is derived from them, so
    # every build and every read of det C and C^-T happens in this test
    def fresh(cached):
        return lru_cache(maxsize=None)(cached.__wrapped__)

    monkeypatch.setattr(rootsys, "_build", fresh(rootsys._build))
    for name in ("_allowed_classes", "_center_steps"):
        monkeypatch.setattr(repdegrees, name, fresh(getattr(repdegrees, name)))
    eliminated = []

    def counting_echelon(rows):
        eliminated.append(len(rows))
        return echelon(rows)

    monkeypatch.setattr(rootsys, "echelon", counting_echelon)
    code, out, err = run(capsys, "zeta", "--group", "E8:sc", "--max-dim", "30000")
    assert (code, err, out.count("\n"), eliminated) == (0, "", 5, [])
    for key in ("zeta --group A3:adjoint --max-dim 1000",
                "zeta --group A1xA1:cosets[0,0;1/2,1/2] --max-dim 1000"):
        code, out, err = run(capsys, *key.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == _REFERENCE[key]
    # one [C^T | I] elimination per system that reads it: A3, then A1 for both factors
    assert eliminated == [3, 1]
