"""Per-operation correctness check.

An operation (one CLI invocation) fails when any of these holds:
- it raised, printed an `error:` line, or exited with status 2 (or any
  status other than 0 and 1);
- an expected output file is missing;
- a Fock identity failed (fock-check);
- the dynamic-shell correlator grid is not finite;
- max |total action| in its conservation.csv exceeds the workload's bound;
- a Monte Carlo CSV differs from the reference recorded for the same config
  seed by more than REFERENCE_RTOL.

Exit status 1 from `correlator` or `covariance` is the honest result of an
acceptance-style comparison that the desk-scale trajectory does not pass;
it is not a failed operation.  The agreement fractions are reported as
`cli.*_agreement` values instead.
"""

from __future__ import annotations

import csv
import os
import re
import zlib

import numpy as np

from workloads import Operation, Workload

# Same seed and config should reproduce the recorded outputs to rounding:
# the tolerance admits reordered sums and BLAS thread-count differences
# along a 10^4-step trajectory, and nothing a real defect would produce.
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12
PROJECTIONS = 3

# Monte Carlo outputs (and the trajectory log) compared against the
# reference, per subcommand.
MC_FILES = {
    "correlator": ("correlator_mc.csv", "conservation.csv"),
    "covariance": ("mode_variance.csv", "covariance_block.csv", "conservation.csv"),
    "mgf-check": ("mgf_check.csv", "conservation.csv"),
    "fock-check": (),
}

_AGREEMENT_PATTERNS = {
    "correlator_agreement": re.compile(r"correlator: ([0-9.]+)% of grid points"),
    "variance_agreement": re.compile(r"covariance: per-mode variance ([0-9.]+)%"),
    "block_agreement": re.compile(r"block ([0-9.]+)% within"),
}
_MGF_PATTERN = re.compile(r"mgf-check: (\d+)/(\d+) pairs")


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """(column names, rows) of an rsft CSV, header comments skipped."""
    with open(path, encoding="utf-8", newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def numeric_columns(path: str) -> dict[str, np.ndarray]:
    columns, rows = read_csv(path)
    out = {}
    for j, name in enumerate(columns):
        try:
            out[name] = np.array([float(row[j]) for row in rows])
        except ValueError:
            continue  # labels and pass flags
    return out


def _weights(key: str, n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(zlib.crc32(key.encode())))
    return rng.uniform(-1.0, 1.0, size=(PROJECTIONS, n))


def summarize(path: str) -> dict[str, dict]:
    """Compact fingerprint of every numeric column: row count, NaN count,
    L1 norm and random projections with weights in [-1, 1]."""
    name = os.path.basename(path)
    summary = {}
    for column, values in numeric_columns(path).items():
        finite = np.where(np.isfinite(values), values, 0.0)
        summary[column] = {
            "n": int(values.size),
            "nan": int(np.count_nonzero(~np.isfinite(values))),
            "l1": float(np.abs(finite).sum()),
            "proj": [float(p) for p in _weights(f"{name}:{column}", values.size) @ finite],
        }
    return summary


def compare(summary: dict, reference: dict, label: str) -> list[str]:
    problems = []
    for column, ref in reference.items():
        got = summary.get(column)
        if got is None:
            problems.append(f"{label}: column {column} missing")
            continue
        if (got["n"], got["nan"]) != (ref["n"], ref["nan"]):
            problems.append(f"{label}:{column}: {got['n']} rows/{got['nan']} NaN, "
                            f"reference {ref['n']}/{ref['nan']}")
            continue
        tol = REFERENCE_RTOL * ref["l1"] + REFERENCE_ATOL
        deviation = max(abs(a - b) for a, b in zip([got["l1"], *got["proj"]], [ref["l1"], *ref["proj"]]))
        if not deviation <= tol:
            problems.append(f"{label}:{column}: deviates from the reference by {deviation:.3e} "
                            f"(tolerance {tol:.3e})")
    return problems


def conservation_error(path: str) -> float:
    return float(np.max(np.abs(numeric_columns(path)["total_action"])))


def agreements(stdout: str) -> dict[str, float]:
    """The agreement fractions a subcommand printed (absent when it printed none)."""
    found = {}
    for key, pattern in _AGREEMENT_PATTERNS.items():
        match = pattern.search(stdout)
        if match:
            found[key] = float(match.group(1)) / 100.0
    match = _MGF_PATTERN.search(stdout)
    if match:
        found["mgf_pairs_ok"] = int(match.group(1)) / int(match.group(2))
    return found


def check_operation(workload: Workload, op: Operation, record: dict, out_dir: str,
                    reference: dict | None) -> tuple[list[str], dict[str, float]]:
    """(problems, measured facts) for one operation; no problems means the
    operation succeeded.  `reference` maps file name to its recorded summary."""
    problems = []
    facts: dict[str, float] = {}
    if record.get("exception"):
        problems.append(f"raised: {record['exception'].strip().splitlines()[-1]}")
    for line in record.get("stderr", "").splitlines():
        if line.startswith("error:"):
            problems.append(line)
    if record.get("rc") not in (0, 1):
        problems.append(f"exit status {record.get('rc')}")
    elif op.subcommand == "fock-check" and record["rc"] != 0:
        problems.append("fock-check reported a failed identity")
    if problems:
        return problems, facts
    facts.update(agreements(record.get("stdout", "")))

    def path(name):
        full = os.path.join(out_dir, name)
        if not os.path.isfile(full):
            problems.append(f"missing output {name}")
            return None
        return full

    if op.subcommand == "fock-check":
        report = path("fock_report.csv")
        if report:
            columns, rows = read_csv(report)
            failed = [row[0] for row in rows if row[columns.index("passed")] != "True"]
            if failed or not rows:
                problems.append(f"Fock identities failed: {failed or 'none reported'}")
    if workload.trajectory:
        log = path("conservation.csv")
        if log:
            facts["conservation_err"] = err = conservation_error(log)
            if not err <= workload.conservation_bound:
                problems.append(f"max |total action| {err:.3e} exceeds the bound "
                                f"{workload.conservation_bound}")
    if workload.dynamic_shell:
        grid = path("correlator_mc.csv")
        if grid:
            values = numeric_columns(grid)
            if not all(np.all(np.isfinite(values[c])) for c in ("re_mean", "im_mean")):
                problems.append("dynamic-shell correlator grid is not finite")
    for name in MC_FILES[op.subcommand]:
        full = path(name)
        if full is None:
            continue
        if reference is None or name not in reference:
            problems.append(f"no reference recorded for {name}")
            continue
        problems.extend(compare(summarize(full), reference[name], name))
    return problems, facts
