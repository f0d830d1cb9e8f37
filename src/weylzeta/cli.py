"""Command-line surface: spectra, polynomials, efficiency, verification.

This module owns the cache file, not the table text in it: a --cache hit
checks the file's sha256 trailer in one pass over its bytes, and
DegreeTable.served checks the table and cuts it at the bound unparsed.
A cache file is named from the group, its stem cut to 200 characters, and
an 8-hex sha256 tag of the full name; the header check turns a collision
into a miss.  The cache path is a plain os.path string, joined to the
directory as given.  A well-formed command line is read from the option
table COMMANDS without argparse, which is imported, and its parsers built,
only for help and errors; each group text is parsed once per process.

Exit codes: 0 on success (and on an all-PASS ledger), 1 when a
verification fails, 2 on usage errors including malformed group
strings, weights, and flag combinations, and on file-system errors
such as an --out path in a missing directory.
"""

from __future__ import annotations

import functools
import hashlib
import os
import re
import sys
from types import SimpleNamespace

from .efficiency import compare as compare_efficiency
from .efficiency import eff_bruteforce, eff_formula
from .gassmann import DEFAULT_TRACE, DEFAULT_TWIST, verify_gassmann
from .repdegrees import (
    DegreeTable,
    GroupSpec,
    dim_irrep,
    zeta_coefficients,
    zeta_star_coefficients,
)
from .rootsys import FamilyRank, build, classify_subsystem
from .verify import run_checks
from .weylpoly import (
    degree,
    evaluate,
    explicit_pair,
    ord_at_zero,
    weyl_polynomial,
)

CACHE_ENV = "WEYLZETA_CACHE"
# The largest factor rank the command line accepts: info on a rank-16 B, C or
# D type takes about 0.03 s, and the build time grows about as the cube of the rank.
MAX_RANK = 16
# The largest gassmann --max-degree: every odd degree up to it has a nonzero
# count, and the tables take about 60-70 bytes per unit of the bound (tracemalloc
# at 2*10^4 and 10^5), so 10^6 runs in about 0.7 s and peaks at 93 MiB of RSS.
MAX_DEGREE = 10**6


def _check_rank(name: str, rank: int) -> None:
    if rank > MAX_RANK:
        raise ValueError(f"rank of {name} exceeds the limit of {MAX_RANK}")


def _parse_type(text: str) -> FamilyRank:
    fr = FamilyRank.parse(text)
    _check_rank(str(fr), fr.rank)
    return fr


@functools.lru_cache(maxsize=64)  # GroupSpec is immutable; a ValueError is not kept
def _parse_group(text: str) -> GroupSpec:
    # checked before parsing, which builds every factor to validate cosets
    for m in re.finditer(r"[A-G](\d+)", text.split(":", 1)[0]):
        _check_rank(m.group(), int(m.group(1)))
    return GroupSpec.parse(text)


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers: {text!r}")


def _require_rank(values: tuple[int, ...], rank: int, what: str) -> None:
    if len(values) != rank:
        raise ValueError(f"{what} needs {rank} coordinates, got {len(values)}")


# -- coefficient cache -----------------------------------------------------


def _cache_dir(args) -> str | None:
    return args.cache or os.environ.get(CACHE_ENV) or None


def _cache_path(directory: str, canonical: str, variant: str) -> str:
    # the stem is cut to 200 characters so that the name and its temporary
    # sibling, at most 36 bytes longer than the stem, fit in 255 bytes; the
    # tag of the whole name tells apart keys whose cut stems agree
    stem = re.sub(r"[^A-Za-z0-9]+", "_", canonical).strip("_")[:200]
    tag = hashlib.sha256(canonical.encode()).hexdigest()[:8]
    return os.path.join(directory, f"{stem}-{tag}.{variant}.tsv")


def _trailer(body: bytes) -> bytes:
    return f"# sha256={hashlib.sha256(body).hexdigest()}\n".encode()


def _unsealed(data: bytes) -> bytes:
    """The table bytes of a cache file; ValueError unless its trailer matches.

    The trailer is the last 74 bytes: "# sha256=", 64 hex digits and a
    newline.  A file cut short, even at a line boundary, loses or breaks it.
    """
    body = data[:-74]
    if data[-74:] != _trailer(body):
        raise ValueError("cache file has no matching trailer")
    return body


def _cached_text(spec: GroupSpec, variant: str, bound: int,
                 directory: str | None) -> str:
    fn = zeta_coefficients if variant == "zeta" else zeta_star_coefficients
    if directory is None:
        return fn(spec, bound).to_text()
    canonical = spec.canonical()
    path = _cache_path(directory, canonical, variant)
    try:
        with open(path, "rb") as f:
            return DegreeTable.served(_unsealed(f.read()), canonical, variant, bound)
    except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
        pass
    text = fn(spec, bound).to_text()
    data = text.encode()
    # write beside the target and rename, so no reader sees half a table;
    # a write or rename that fails takes its temporary file with it
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.write(_trailer(data))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:  # never made
            pass
        raise
    return text


# -- subcommands -----------------------------------------------------------


def _cmd_info(args) -> int:
    system = build(_parse_type(args.type))
    res = eff_formula(system.id)
    print(f"type: {system.id}")
    print(f"roots: {system.num_roots}")
    print(f"positive roots: {system.num_positive}")
    print("cartan:")
    for row in system.cartan_matrix:
        print("  " + " ".join(f"{v:>2}" for v in row))
    print(f"eff: {res.eff}")
    print(f"lev: {res.lev}")
    return 0


def _cmd_dims(args) -> int:
    system = build(_parse_type(args.type))
    weight = _parse_ints(args.weight, "--weight")
    _require_rank(weight, system.rank, "--weight")
    if any(c < 0 for c in weight):
        raise ValueError("--weight coordinates must be nonnegative")
    print(dim_irrep(system, weight))
    return 0


def _print_table(args) -> int:
    spec = _parse_group(args.group)
    if args.max_dim < 1:
        raise ValueError("--max-dim must be positive")
    variant = args.command.replace("-", "_")
    text = _cached_text(spec, variant, args.max_dim, _cache_dir(args))
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_weylpoly(args) -> int:
    fr = _parse_type(args.type)
    system = build(fr)
    if args.mu is not None or args.nu is not None:
        if args.mu is None or args.nu is None:
            raise ValueError("--mu and --nu must be given together")
        mu = _parse_ints(args.mu, "--mu")
        nu = _parse_ints(args.nu, "--nu")
        _require_rank(mu, system.rank, "--mu")
        _require_rank(nu, system.rank, "--nu")
    else:
        pair = explicit_pair(fr)
        mu, nu = pair.mu, pair.nu
    points = _parse_ints(args.eval, "--eval") if args.eval else ()
    P = weyl_polynomial(system, mu, nu)
    print(f"mu: {','.join(map(str, mu))}")
    print(f"nu: {','.join(map(str, nu))}")
    print(f"coefficients: {P}")
    if any(P.coefficients):
        print(f"ord: {ord_at_zero(P)}")
        print(f"deg: {degree(P)}")
    for n in points:
        print(f"P({n}) = {evaluate(P, n)}")
    return 0


def _cmd_efficiency(args) -> int:
    fr = _parse_type(args.type)
    res = eff_formula(fr)
    # search first: a type it refuses exits 2 with nothing on stdout
    brute = eff_bruteforce(fr) if args.brute_force else None
    print(f"eff: {res.eff}")
    print(f"lev: {res.lev}")
    if brute:
        print(f"brute-force eff: {brute.eff}")
        print(f"brute-force lev: {brute.lev}")
        names = ["x".join(str(t) for t in classify_subsystem(part)) or "empty"
                 for part in brute.witness]
        print(f"witness: {names[0]} | {names[1]}")
    return 0


def _cmd_compare(args) -> int:
    print(compare_efficiency(_parse_type(args.first), _parse_type(args.second)))
    return 0


def _cmd_gassmann(args) -> int:
    if args.max_degree < 1:
        raise ValueError("--max-degree must be positive")
    if args.max_degree > MAX_DEGREE:
        raise ValueError(f"--max-degree exceeds the limit of {MAX_DEGREE}")
    report = verify_gassmann(DEFAULT_TRACE, DEFAULT_TWIST, args.max_degree)
    print(f"n: {report.n}")
    print(f"zeta tables equal up to {args.max_degree}: {str(report.zeta_equal).lower()}")
    print(f"permutation equivalent: {str(report.perm_equivalent).lower()}")
    ok = report.zeta_equal and not report.perm_equivalent
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    results = run_checks(fast=args.fast)
    if args.json:
        import json  # only this report needs it, so the import stays off the start-up path

        print(json.dumps({"checks": [
            {"title": r.title, "passed": r.passed, "seconds": r.seconds, "detail": r.detail}
            for r in results]}))
    else:
        for r in results:
            print(f"PASS {r.title}" if r.passed else f"FAIL {r.title}: {r.detail}")
    return 0 if all(r.passed for r in results) else 1


# -- wiring ----------------------------------------------------------------

_TABLE_OPTIONS = (
    ("--group", str, True, "SPEC", None),
    ("--max-dim", int, True, "D", None),
    ("--out", str, False, "FILE", None),
    ("--cache", str, False, "DIR", f"table cache directory (default: ${CACHE_ENV})"),
)
# command: (help, handler, options), each option (flag, kind, required,
# metavar, help) with kind str, int or bool (store_true), in --help order
COMMANDS = {
    "info": ("size, Cartan matrix, and efficiency of a type", _cmd_info, (
        ("--type", str, True, "F<n>", None),
    )),
    "dims": ("dimension of one irreducible representation", _cmd_dims, (
        ("--type", str, True, "F<n>", None),
        ("--weight", str, True, "a1,..,an", None),
    )),
    "zeta": ("degree counts (zeta) up to a bound", _print_table, _TABLE_OPTIONS),
    "zeta-star": ("degree counts (zeta_star) up to a bound", _print_table, _TABLE_OPTIONS),
    "weylpoly": ("dimension polynomial of a weight pair", _cmd_weylpoly, (
        ("--type", str, True, "F<n>", None),
        ("--mu", str, False, "a1,..,an", "with --nu, replaces the built-in pair"),
        ("--nu", str, False, "a1,..,an",
         "a leading minus needs the = form: --nu=-2,0, --mu=-1,0"),
        ("--eval", str, False, "n1,n2,..", None),
    )),
    "efficiency": ("efficiency and level of a type", _cmd_efficiency, (
        ("--type", str, True, "F<n>", None),
        ("--brute-force", bool, False, None, None),
    )),
    "compare": ("order two types by efficiency data", _cmd_compare, (
        ("--first", str, True, "F<n>", None),
        ("--second", str, True, "F<n>", None),
    )),
    "gassmann": ("equal-spectrum quotient pair report", _cmd_gassmann, (
        ("--max-degree", int, True, "D", None),
    )),
    "verify-paper": ("regression ledger of reference values", _cmd_verify, (
        ("--fast", bool, False, None, "skip the prime-power scan"),
        ("--json", bool, False, None,
         "print one JSON object with each check's title, verdict and seconds"),
    )),
}
# command: (handler, {flag: (dest, kind)}, the optional dests' defaults),
# each dest named as argparse names it
_FLAGS = {
    name: (func,
           {flag: (flag[2:].replace("-", "_"), kind) for flag, kind, *_ in options},
           {flag[2:].replace("-", "_"): False if kind is bool else None
            for flag, kind, required, *_ in options if not required})
    for name, (_, func, options) in COMMANDS.items()
}


@functools.cache  # parse_args leaves the parsers as they were
def _build_parser():
    """The top-level ArgumentParser and each command's own, by name, from COMMANDS."""
    import argparse  # only help and errors need it, so it stays off the start-up path

    parser = argparse.ArgumentParser(
        prog="weylzeta",
        description="Representation-degree spectra of compact semisimple groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kind, required, metavar, option_help in options:
            if kind is bool:
                p.add_argument(flag, action="store_true", help=option_help)
            else:  # type None is argparse's default: the text as given
                p.add_argument(flag, required=required, type=int if kind is int else None,
                               metavar=metavar, help=option_help)
        p.set_defaults(func=func)
    return parser, sub.choices


def _quick(argv: list[str]) -> SimpleNamespace | None:
    """argv read from COMMANDS without argparse, or None to leave it to argparse.

    Read here: a known command, then only its exact long flags, each but a
    store_true one followed by a value that does not begin with "-", every
    int value passing int(), every required option given.  The fields are
    those argparse gives: command, every dest (a repeated option's last
    value, an absent one's None or False) and func.  Anything else, such as
    an abbreviation, an = form, -h, an unknown token, a missing value or a
    bad int, is argparse's to read, with its messages and exit codes.
    """
    if not argv or argv[0] not in _FLAGS:
        return None
    func, flags, defaults = _FLAGS[argv[0]]
    fields = dict(defaults)
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in flags:
            return None
        dest, kind = flags[token]
        if kind is bool:
            fields[dest] = True
            continue
        value = next(tokens, "-")  # a missing value is left to argparse too
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        fields[dest] = value
    if len(fields) < len(flags):  # one flag per dest: a required one is missing
        return None
    return SimpleNamespace(command=argv[0], func=func, **fields)


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """argv as the top-level parser reads it.

    A well-formed command line is read from COMMANDS by _quick.  Any other
    goes to argparse: a known command's to that command's own parser alone,
    the rest to the top-level parser.  The top-level parser would scan the
    arguments and then hand them all to the command's parser, which scans
    them again.  Only an unrecognized argument reads differently: the error
    names the command's usage.
    """
    args = _quick(argv)
    if args is not None:
        return args
    parser, commands = _build_parser()
    if argv and argv[0] in commands:
        return commands[argv[0]].parse_args(argv[1:], SimpleNamespace(command=argv[0]))
    return parser.parse_args(argv, SimpleNamespace())


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
