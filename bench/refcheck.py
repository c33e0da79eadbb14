"""Output checks for benchmark jobs.

A checked output is one PASS/FAIL line of `verify` or one row of an
`amu`/`limit` table. Each row's spectral radius is compared with a reference
built by the oracle route: `numeric.oracle_matrices` at A_p (the raw per-level
construction, independent of the symbolic Q(X) build) with the word product
formed in numpy by binary powering.

The reference has rounding error of its own, largest where eigenvalues
cluster near the unit circle. Every cyclic rotation of a word gives a
conjugate matrix, so the spread of the spectral radii over the rotations
estimates that error. The reference is their median, and a row fails when it
disagrees with the reference by more than 1e-6 (the CLI's default certificate
margin, so a failing row can move `p0_observed`) plus that spread.
"""

from __future__ import annotations

import json
import math
import statistics

import numpy as np

REL_GATE = 1e-6
DIGITS_CAP = 16.0  # double precision; also what an exact check scores


class References:
    """Reference spectral radius and its error estimate for every row of a job
    list, computed once."""

    def __init__(self, numeric, jobs):
        gens = {}
        self.rows = {}  # (letters, N, p) -> (rho, relative error estimate)
        for job in jobs:
            for p in job.levels:
                key = (job.N, p)
                if key not in gens:
                    t, ts = numeric.oracle_matrices(numeric.PSetting(p, job.N))
                    gens[key] = {("y", 1): t, ("z", 1): ts,
                                 ("y", -1): np.linalg.inv(t), ("z", -1): np.linalg.inv(ts)}
                factors = [
                    np.linalg.matrix_power(gens[key][g, 1 if e > 0 else -1], abs(e))
                    for g, e in job.letters
                ]
                rhos = []
                for r in range(len(factors)):
                    w = np.eye(job.N, dtype=complex)
                    for f in factors[r:] + factors[:r]:
                        w = w @ f
                    rhos.append(float(np.max(np.abs(np.linalg.eigvals(w)))))
                rho = statistics.median(rhos)
                self.rows[(job.letters, job.N, p)] = (rho, (max(rhos) - min(rhos)) / rho)


class Tally:
    """Running totals of checked outputs over a run."""

    def __init__(self):
        self.jobs = 0
        self.failed_jobs = 0  # jobs with a problem
        self.attempted = 0  # checked outputs
        self.failed = 0
        self.digits = []  # agreement digits of each float row
        self.worst_rel = 0.0
        self.flagged = {}  # job -> failed outputs
        self.problems = []  # anything that makes the run incorrect

    def outputs(self, label, attempted, failed):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.flagged[label] = self.flagged.get(label, 0) + failed

    def row(self, label, rel: float, err: float):
        self.outputs(label, 1, not rel <= REL_GATE + err)
        self.worst_rel = max(self.worst_rel, rel)
        self.digits.append(min(DIGITS_CAP, max(0.0, -math.log10(max(rel, 1e-300)))))

    @property
    def passed_frac(self) -> float:
        return 1.0 - self.failed / self.attempted

    @property
    def accuracy_digits(self) -> float:
        """Mean over float rows of -log10(relative disagreement), each row
        clamped to [0, 16]; 16 for a workload whose outputs are all exact."""
        return statistics.fmean(self.digits) if self.digits else DIGITS_CAP


def check(job, rc, out: str, error, refs: References, tally: Tally):
    """Count `job` and its checked outputs into `tally`. A job that raised or
    exited with an unexpected status fails all of its outputs. The job itself
    fails when it has a problem; float rows beyond the gate are failed outputs
    of a job that did not fail."""
    known = len(tally.problems)
    _check_outputs(job, rc, out, error, refs, tally)
    tally.jobs += 1
    tally.failed_jobs += len(tally.problems) > known


def _check_outputs(job, rc, out, error, refs, tally):
    label = " ".join(job.argv)
    if job.kind == "verify":
        lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        fails = sum(ln.startswith("FAIL") for ln in lines)
        tally.outputs(label, job.checks, fails + max(0, job.checks - len(lines)))
        if error is not None or len(lines) != job.checks or rc != (1 if fails else 0):
            tally.problems.append(f"{label}: rc={rc} error={error!r}")
        elif fails:
            tally.problems.append(f"{label}: {fails} exact check(s) failed")
        return
    rows = {}
    if error is None and rc == 0:
        try:
            rows = {r["p"]: r["spectral_radius"] for r in json.loads(out)["rows"]}
        except (ValueError, KeyError, TypeError) as err:
            tally.problems.append(f"{label}: unreadable output ({err})")
    else:
        tally.problems.append(f"{label}: rc={rc} error={error!r}")
    if rows and set(rows) != set(job.levels):
        tally.problems.append(f"{label}: rows for the wrong levels")
    for p in job.levels:
        rho = rows.get(p)
        if not isinstance(rho, float) or not math.isfinite(rho):
            tally.outputs(label, 1, 1)
            if rows:
                tally.problems.append(f"{label}: row p={p} is {rho!r}")
            continue
        ref, err = refs.rows[(job.letters, job.N, p)]
        tally.row(label, abs(rho - ref) / ref, err)
