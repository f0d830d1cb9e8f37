"""The benchmark's workloads: what each runs, why it exists, how its seed
shapes it, and which end-to-end metric each per-layer metric should move.

A job is one argv for ``weylzeta.cli.main``.  Its reference key is the argv
joined by spaces, without the ``--cache DIR`` pair that cache jobs get at run
time: a table served from the cache must print exactly what a fresh
computation prints.
"""

from __future__ import annotations

import random

# Why each workload exists.  BENCHMARK.json repeats these lines.
WHY = {
    "ledger": "one full verify-paper run: root-system builds, efficiency "
              "search, rigidity and Weyl polynomials; no spectrum engine or cache",
    "spectra": "eleven zeta, zeta-star and gassmann jobs without a cache: factor "
               "spectra, product combine, lattice filter, allowability, Dirichlet",
    "cache": "288 zeta and zeta-star requests over 32 keys into one empty "
             "--cache dir: 32 misses compute and write, 256 hits read and truncate",
}

LEDGER = [["verify-paper"]]
LEDGER_TOY = [["verify-paper", "--fast"]]

# Each job puts real time into a different spectrum stage: the lattice filter
# passes everything on sc groups and rejects most weights on adjoint and
# cosets groups.  The bounds are chosen so that by cost the jobs fall into
# five small ones (<= 0.3 s), one middle one (A3:adjoint, ~0.5 s), four large
# ones (~0.8 s) and one top one (~2 s), at least 1.5x apart between groups.
# Job latency percentiles then fall inside one job's own samples instead of
# on a boundary between two jobs: p50 on the middle job, p95 on the top one.
SPECTRA = [
    ["zeta", "--group", "A1xA1xA1:sc", "--max-dim", "4000"],
    ["zeta", "--group", "A1xA1xA1:adjoint", "--max-dim", "1300"],
    ["zeta", "--group", "A1xA1:cosets[0,0;1/2,1/2]", "--max-dim", "3000"],
    ["zeta", "--group", "A3:adjoint", "--max-dim", "300000"],
    ["zeta", "--group", "B7:adjoint", "--max-dim", "1000000"],
    ["zeta", "--group", "G2xA2:sc", "--max-dim", "100000"],
    ["zeta", "--group", "A1:adjoint", "--max-dim", "15000"],
    ["zeta-star", "--group", "A1:sc", "--max-dim", "80000"],
    ["zeta-star", "--group", "A2:sc", "--max-dim", "100000"],
    ["zeta-star", "--group", "A1xA1:sc", "--max-dim", "7000"],
    ["gassmann", "--max-degree", "20000"],
]
SPECTRA_TOY = [
    ["zeta", "--group", "A1xA1:cosets[0,0;1/2,1/2]", "--max-dim", "200"],
    ["zeta", "--group", "A2:adjoint", "--max-dim", "2000"],
    ["zeta-star", "--group", "A1:sc", "--max-dim", "2000"],
    ["gassmann", "--max-degree", "500"],
]

CACHE_GROUPS = [
    "A1:sc", "A1:adjoint", "A2:sc", "A2:adjoint", "A3:sc", "A3:adjoint",
    "B2:sc", "B2:adjoint", "G2:sc", "B3:sc", "C3:sc", "D4:sc",
    "A1xA1:sc", "A1xA1:adjoint", "A1xA1:cosets[0,0;1/2,1/2]", "A1xA2:sc",
]
CACHE_COMMANDS = ["zeta", "zeta-star"]
CACHE_TOP = 2000
# Hit bounds as eighths of the top bound; the top bound itself is hit once too.
CACHE_HIT_EIGHTHS = [8, 7, 6, 5, 4, 3, 2, 1]
CACHE_TOY_GROUPS = ["A1:sc", "A2:adjoint"]
CACHE_TOY_TOP = 400


def _cache_stream(groups, top, seed):
    """A seeded permutation of a fixed multiset of cache requests.

    Every key (command, group) is requested once at ``top`` and once at each
    eighth of it.  After the shuffle, each key's bounds are re-dealt over that
    key's positions so that its first request is the ``top`` one: a miss that
    writes the table, which every later request of the key can then hit.
    """
    keys = [(cmd, group) for group in groups for cmd in CACHE_COMMANDS]
    stream = [key for key in keys for _ in range(1 + len(CACHE_HIT_EIGHTHS))]
    rng = random.Random(seed)
    rng.shuffle(stream)
    bounds = {}
    for key in keys:
        hits = [top * e // 8 for e in CACHE_HIT_EIGHTHS]
        rng.shuffle(hits)
        bounds[key] = [top] + hits
    jobs = []
    for cmd, group in stream:
        bound = bounds[cmd, group].pop(0)
        jobs.append({"argv": [cmd, "--group", group, "--max-dim", str(bound)],
                     "cache": True})
    return jobs


def plan(name: str, seed: int, toy: bool = False) -> list[dict]:
    """The jobs of one pass of workload ``name``, in order.

    Each job is ``{"argv": [...], "cache": bool}``.  The seed fixes the order
    only, never the set of jobs, so every seed does the same work.  ``ledger``
    has one job and ignores the seed.
    """
    if name == "ledger":
        return [{"argv": list(a), "cache": False} for a in (LEDGER_TOY if toy else LEDGER)]
    if name == "spectra":
        jobs = [list(a) for a in (SPECTRA_TOY if toy else SPECTRA)]
        random.Random(seed).shuffle(jobs)
        return [{"argv": a, "cache": False} for a in jobs]
    if name == "cache":
        if toy:
            return _cache_stream(CACHE_TOY_GROUPS, CACHE_TOY_TOP, seed)
        return _cache_stream(CACHE_GROUPS, CACHE_TOP, seed)
    raise ValueError(f"unknown workload {name!r}")


def key(argv) -> str:
    """Reference key of a job: its argv without the cache directory."""
    return " ".join(argv)


def all_jobs() -> list[list[str]]:
    """Every distinct job argv of every workload, full and toy size."""
    seen = {}
    for name in WHY:
        for toy in (False, True):
            for job in plan(name, 0, toy):
                seen.setdefault(key(job["argv"]), job["argv"])
    return list(seen.values())


# Per-layer metrics, each with its unit and the end-to-end metric it should
# move on the named workload.  Spans are self time (span minus traced
# children) unless the line says inclusive.
PER_LAYER = {
    "rootsys.build_s": ("s", "wall_s on ledger; on spectra only the first job's share"),
    "rootsys.builds": ("count", "wall_s on ledger: distinct root systems built"),
    "rootsys.rigidity_s": ("s", "wall_s on ledger: quadratic_nullspace_dim + spanning_check"),
    "repdegrees.enumerate_s": ("s", "wall_s and peak_rss_mib on spectra; miss cost on cache"),
    "repdegrees.weights_visited": ("count", "wall_s and peak_rss_mib on spectra"),
    "repdegrees.weights_kept": ("count", "peak_rss_mib on spectra"),
    "repdegrees.lattice_s": ("s", "wall_s on spectra; no change expected on sc jobs"),
    "repdegrees.lattice_calls": ("count", "wall_s on spectra"),
    "repdegrees.lattice_accept_ratio": ("ratio", "wall_s on spectra: accepted/calls on quotient groups only"),
    "repdegrees.allowable_s": ("s", "wall_s on spectra"),
    "repdegrees.allowable_calls": ("count", "wall_s on spectra"),
    "repdegrees.dim_irrep_s": ("s", "wall_s on ledger"),
    "repdegrees.dim_irrep_calls": ("count", "wall_s on ledger"),
    "repdegrees.euler_s": ("s", "wall_s on ledger"),
    "weylpoly.weyl_polynomial_s": ("s", "wall_s on ledger"),
    "weylpoly.polynomials": ("count", "wall_s on ledger"),
    "efficiency.bruteforce_s": ("s", "wall_s on ledger; zero on spectra and cache"),
    "efficiency.bruteforce_F4_s": ("s", "wall_s on ledger; zero on spectra and cache"),
    "gassmann.dirichlet_s": ("s", "wall_s on spectra"),
    "gassmann.dirichlet_calls": ("count", "wall_s on spectra"),
    "gassmann.quotient_zeta_s": ("s", "wall_s on spectra"),
    "gassmann.perm_equivalent_s": ("s", "wall_s on spectra"),
    "cli.cache_hits": ("count", "job_p50_ms and wall_s on cache; zero on spectra"),
    "cli.cache_misses": ("count", "job_p95_ms and wall_s on cache; zero on spectra"),
    "cli.cache_tables_parsed": ("count", "job_p50_ms and wall_s on cache: DegreeTable.from_text calls"),
    "cli.cache_parse_useful_ratio": ("ratio", "job_p50_ms on cache: hits per table parsed"),
    "cli.cache_parse_s": ("s", "job_p50_ms, job_p95_ms and wall_s on cache"),
    "cli.cache_write_s": ("s", "wall_s on cache: miss jobs minus their traced compute, parse and render"),
    "cli.hit_p50_ms": ("ms", "job_p50_ms on cache: untraced cache-hit latency"),
    "cli.hit_p95_ms": ("ms", "job_p95_ms on cache: untraced cache-hit latency"),
    "verify.check.explicit_values_s": ("s", "wall_s on ledger (inclusive)"),
    "verify.check.polynomial_consistency_s": ("s", "wall_s on ledger (inclusive)"),
    "verify.check.minimal_divisible_dimensions_s": ("s", "wall_s on ledger (inclusive)"),
    "verify.check.efficiency_oracle_s": ("s", "wall_s on ledger (inclusive)"),
    "verify.check.prime_power_scan_s": ("s", "wall_s on ledger (inclusive)"),
    "verify.check.scaling_identity_s": ("s", "wall_s on ledger (inclusive)"),
    "verify.check.euler_identity_s": ("s", "wall_s on ledger (inclusive)"),
    "verify.check.gassmann_pair_s": ("s", "wall_s on ledger (inclusive)"),
    "verify.check.quadratic_rigidity_s": ("s", "wall_s on ledger (inclusive)"),
    "verify.check.prime_order_limit_s": ("s", "wall_s on ledger (inclusive)"),
    "trace.spans": ("count", "none: spans recorded in one traced pass"),
    "trace.overhead_s": ("s", "none: traced wall_s minus untraced wall_s"),
}
