"""The benchmark's workloads: instance schedule, requests, judging.

Every workload draws the same kind of mix, set per workload in ``mix`` as
slots per shape: one in six instances is ``GenKind.ISOTROPIC`` (light cone,
so the right answer is a refusal), the rest are ``GenKind.EXISTENT`` with
rank ``3*min(m, n)//5``, and one in four of those (rounded to whole slots)
is scaled by ``10**k`` with ``k`` in ``K_VALUES``.

The slots form a fixed schedule, the same for every seed.  The unscaled
slots make the request pool, which requests walk in order, round after
round.  The scaled slots make the scale probe, run once per run outside the
timed loop: it exposes known scale defects of the package (audit false
rejects at ``1e+-8`` and ``1e-100``, ``OverflowError`` at ``1e100``; see
``KNOWN_FAILURES``), which are reported with their breakdown, while the
timed requests are ones the package answers correctly, so any failure among
them is a regression.  The seed draws the matrices and where the cycle of
scale exponents starts (see ``generate_instances``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import astuple, dataclass

import numpy as np

import minkinv
import minkinv.cli
import truth

K_VALUES = (-100, -8, 8, 100)
# The failure each scale exponent produces at present (ROADMAP item 2).  A
# failure of another kind, or on an unscaled instance, is a regression.
KNOWN_FAILURES = {-100: truth.AUDIT_FALSE_REJECT, -8: truth.AUDIT_FALSE_REJECT,
                  8: truth.AUDIT_FALSE_REJECT, 100: truth.exception_kind("OverflowError")}
ISOTROPIC, SCALED, EXISTENT = "isotropic", "scaled", "existent"
CATEGORIES = (ISOTROPIC, SCALED, EXISTENT)
CHILD_TIMEOUT_S = 60.0
EXIT_OK, EXIT_NEGATIVE = 0, 1   # the CLI's documented exit-code contract


@dataclass(frozen=True)
class Instance:
    """One generated input and what the generator knows about it."""

    A: np.ndarray
    exists: bool
    k: int | None = None          # decimal exponent of the scale; None when unscaled
    a_path: str | None = None     # cli: the matrix file
    x_path: str | None = None     # cli: where ``inverse`` writes X


def _spread(counts: list[int]) -> list[int]:
    """Labels 0..len(counts)-1, label i repeated counts[i] times, evenly interleaved."""
    keyed = [((j + 0.5) / n, i) for i, n in enumerate(counts) for j in range(n)]
    return [i for _, i in sorted(keyed)]


def schedule(mix: dict) -> list[tuple[tuple[int, int], str]]:
    """The slot list (shape, category) for a mix {shape: slots per category}.

    The categories are interleaved evenly over the whole list, and within each
    category the shapes are, so every prefix has nearly the mix's composition.
    """
    shapes = list(mix)
    by_category = [[shapes[i] for i in _spread([mix[s][c] for s in shapes])]
                   for c in range(len(CATEGORIES))]
    return [(by_category[c].pop(0), CATEGORIES[c])
            for c in _spread([len(cat) for cat in by_category])]


def generate_instances(mix: dict, seed: int) -> tuple[list[Instance], list[Instance]]:
    """The request pool and the scale probe, deterministic in ``seed``.

    Every slot's matrix is drawn once with ``minkinv.generate``.  The pool is
    one round of the schedule without its scaled slots, in schedule order;
    requests walk it round after round.  The scale probe holds
    ``max(len(K_VALUES), scaled slots)`` instances: probe ``i`` is scaled
    slot ``i mod (scaled slots)`` times ``10**k`` with ``k`` taken from
    ``K_VALUES`` in turn from a start the seed picks, so every scaled slot
    and every ``k`` appear.
    """
    rng = np.random.default_rng(seed)
    slots = schedule(mix)
    gen_seeds = [int(rng.integers(2 ** 63)) for _ in slots]
    start = int(rng.integers(len(K_VALUES)))
    pool, scaled = [], []
    for ((m, n), cat), gseed in zip(slots, gen_seeds):
        if cat == ISOTROPIC:
            spec = minkinv.GenSpec(rows=m, cols=n, rank=1, kind=minkinv.GenKind.ISOTROPIC,
                                   seed=gseed)
        else:
            spec = minkinv.GenSpec(rows=m, cols=n, rank=3 * min(m, n) // 5,
                                   kind=minkinv.GenKind.EXISTENT, seed=gseed)
        (scaled if cat == SCALED else pool).append(
            Instance(minkinv.generate(spec), exists=cat != ISOTROPIC))
    probe = []
    for i in range(max(len(K_VALUES), len(scaled))):
        k = K_VALUES[(start + i) % len(K_VALUES)]
        probe.append(Instance(scaled[i % len(scaled)].A * 10.0 ** k, exists=True, k=k))
    return pool, probe


def _digest(data) -> str | None:
    if data is None:
        return None
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def _error(exc) -> tuple[str, str] | None:
    return None if exc is None else (type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# solve: X = mink_inverse(A), then check_candidate(A, X)
# ---------------------------------------------------------------------------

@dataclass
class SolveOutput:
    X: np.ndarray | None = None
    report: object = None
    error: Exception | None = None


class Solve:
    """Compute and certify: ``mink_inverse`` followed by ``check_candidate``."""

    name = "solve"
    # A round of the pool has 19 requests; this split puts their median inside
    # the (128, 96) latencies and their 90th percentile inside the (256, 256)
    # ones, away from the edges between shapes.
    mix = {(64, 64): (1, 1, 5), (128, 96): (1, 1, 4), (96, 160): (1, 2, 2),
           (256, 256): (1, 1, 4)}

    def setup(self, seed: int, workdir: str) -> tuple[list[Instance], list[Instance]]:
        return generate_instances(self.mix, seed)

    def request(self, inst: Instance) -> SolveOutput:
        try:
            X = minkinv.mink_inverse(inst.A)
        except Exception as exc:  # judged against the contract below
            return SolveOutput(error=exc)
        try:
            return SolveOutput(X=X, report=minkinv.check_candidate(inst.A, X))
        except Exception as exc:
            return SolveOutput(X=X, error=exc)

    def collect(self, inst: Instance, out: SolveOutput) -> SolveOutput:
        return out

    def judge(self, inst: Instance, out: SolveOutput) -> str | None:
        if out.X is None:
            if isinstance(out.error, minkinv.NotExistent):
                return truth.WRONG_REFUSAL if inst.exists else None
            return truth.exception_kind(type(out.error).__name__)
        if not inst.exists:
            return truth.WRONG_ACCEPTANCE
        if not truth.is_minkowski_inverse(inst.A, out.X):
            return truth.WRONG_ANSWER
        if out.error is not None:
            return truth.exception_kind(type(out.error).__name__)
        if not out.report.verdict:
            return truth.AUDIT_FALSE_REJECT
        return None

    def fingerprint(self, out: SolveOutput):
        report = None if out.report is None else repr(astuple(out.report))
        return _digest(out.X), report, _error(out.error)


# ---------------------------------------------------------------------------
# oracle: cross_check(A)
# ---------------------------------------------------------------------------

class Oracle:
    """The cross-checking oracle: every algorithm plus one audit each."""

    name = "oracle"
    # A round of the pool has 25 requests: 11 cost less than the (48, 48)
    # existent ones and 9 more, so the median falls inside that group and the
    # 90th percentile inside the (96, 96) existent one, away from the edges.
    mix = {(24, 24): (1, 2, 3), (48, 48): (1, 1, 5), (48, 36): (1, 1, 4),
           (96, 96): (1, 1, 4), (72, 96): (1, 1, 4)}

    def setup(self, seed: int, workdir: str) -> tuple[list[Instance], list[Instance]]:
        return generate_instances(self.mix, seed)

    def request(self, inst: Instance):
        try:
            return minkinv.cross_check(inst.A)
        except Exception as exc:  # judged against the contract below
            return exc

    def collect(self, inst: Instance, out):
        return out

    @staticmethod
    def _judge_outcome(inst: Instance, o) -> str | None:
        if not inst.exists:
            if o.status == "ok":
                return truth.WRONG_ACCEPTANCE
            return None if o.status == "refused" else truth.ALGORITHM_FAILED
        if o.status == "refused":
            return truth.WRONG_REFUSAL
        if o.status != "ok":
            return truth.ALGORITHM_FAILED
        if not truth.is_minkowski_inverse(inst.A, o.result):
            return truth.WRONG_ANSWER
        return None if o.check.verdict else truth.AUDIT_FALSE_REJECT

    def judge(self, inst: Instance, out) -> str | None:
        if isinstance(out, Exception):
            return truth.exception_kind(type(out).__name__)
        if out.exists != inst.exists:
            return truth.WRONG_EXISTENCE
        for o in out.outcomes:
            kind = self._judge_outcome(inst, o)
            if kind is not None:
                return kind
        return None if out.verdict else truth.WRONG_VERDICT

    @staticmethod
    def useful(inst: Instance, out) -> tuple[int, int]:
        """(outcomes that passed the audit or refused correctly, outcomes attempted)."""
        if isinstance(out, Exception):
            return 0, 0
        if inst.exists:
            good = sum(o.status == "ok" and o.check.verdict for o in out.outcomes)
        else:
            good = sum(o.status == "refused" for o in out.outcomes)
        return good, len(out.outcomes)

    def fingerprint(self, out):
        if isinstance(out, Exception):
            return _error(out)
        outcomes = tuple(
            (o.name, o.status, _digest(o.result),
             None if o.check is None else repr(astuple(o.check)), o.detail)
            for o in out.outcomes)
        return out.exists, out.verdict, repr(out.max_gap), outcomes


# ---------------------------------------------------------------------------
# cli: `minkinv inverse A.json X.json`, then `minkinv check A.json X.json`
# ---------------------------------------------------------------------------

def write_matrix_file(path: str, A: np.ndarray) -> None:
    """The CLI's JSON matrix format, written without the package."""
    pairs = np.stack([A.real, A.imag], axis=-1).reshape(-1, 2).tolist()
    # json.dumps takes the C encoder; json.dump(obj, fh) would take the Python one
    text = json.dumps({"rows": A.shape[0], "cols": A.shape[1], "data": pairs},
                      separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def parse_matrix_bytes(data: bytes) -> np.ndarray | None:
    """Read the CLI's JSON matrix format without the package; None if malformed."""
    try:
        obj = json.loads(data)
        pairs = np.asarray(obj["data"], dtype=np.float64)
        return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(obj["rows"], obj["cols"])
    except (ValueError, KeyError, TypeError, IndexError):
        return None


def _crash_name(stderr: str) -> str | None:
    """Exception type of an uncaught traceback in a child's stderr, if any."""
    if "Traceback (most recent call last)" not in stderr:
        return None
    last = [line for line in stderr.splitlines() if line.strip()][-1]
    return last.split(":", 1)[0].strip().rsplit(".", 1)[-1]


@dataclass
class CliOutput:
    inverse: tuple[int, str | None]         # (exit code, uncaught exception type)
    check: tuple[int, str | None] | None    # None when ``check`` was skipped
    x_bytes: bytes | None = None


class Cli:
    """The ``minkinv`` command line: ``inverse``, then ``check``.

    ``request`` runs the commands through ``minkinv.cli.main(argv)`` in this
    process, one after the other, so that the timed requests are the CLI's
    own work (reading and writing the JSON files, computing, checking)
    without the host's process start-up jitter.  ``request_child`` runs the
    same commands as child processes; a traced run compares the two, which
    gives ``cli.startup_ms`` and checks that the replay answers as the real
    command does.
    """

    name = "cli"
    mix = {(128, 128): (1, 2, 5), (256, 256): (1, 1, 2)}

    def __init__(self, src_dir: str):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src_dir + (os.pathsep + path if path else ""))

    def setup(self, seed: int, workdir: str) -> tuple[list[Instance], list[Instance]]:
        pool, probe = generate_instances(self.mix, seed)
        out = []
        for i, inst in enumerate(pool + probe):
            a_path = os.path.join(workdir, f"A{i}.json")
            write_matrix_file(a_path, inst.A)
            out.append(Instance(inst.A, inst.exists, inst.k, a_path,
                                os.path.join(workdir, f"X{i}.json")))
        return out[:len(pool)], out[len(pool):]

    def _child(self, argv: list[str]) -> tuple[int, str | None]:
        proc = subprocess.run([sys.executable, "-m", "minkinv.cli", *argv], capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, env=self.env)
        return proc.returncode, _crash_name(proc.stderr)

    @staticmethod
    def _inproc(argv: list[str]) -> tuple[int, str | None]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return minkinv.cli.main(argv), None
            except SystemExit as exc:
                return exc.code, None
            except Exception as exc:  # an uncaught exception exits 1 in a real process
                return 1, type(exc).__name__

    def _run(self, inst: Instance, run) -> CliOutput:
        inverse = run(["inverse", inst.a_path, inst.x_path])
        check = run(["check", inst.a_path, inst.x_path]) if inverse[0] == 0 else None
        return CliOutput(inverse, check)

    def request(self, inst: Instance) -> CliOutput:
        return self._run(inst, self._inproc)

    def request_child(self, inst: Instance) -> CliOutput:
        return self._run(inst, self._child)

    def collect(self, inst: Instance, out: CliOutput) -> CliOutput:
        """Take the written X (if any) off the disk, so no later request sees it."""
        if os.path.exists(inst.x_path):
            with open(inst.x_path, "rb") as fh:
                out.x_bytes = fh.read()
            os.unlink(inst.x_path)
        return out

    def judge(self, inst: Instance, out: CliOutput) -> str | None:
        code, crash = out.inverse
        if crash is not None:
            return truth.exception_kind(crash)
        if code != EXIT_OK:
            if code == EXIT_NEGATIVE:
                return truth.WRONG_REFUSAL if inst.exists else None
            return f"exit_{code}"
        if not inst.exists:
            return truth.WRONG_ACCEPTANCE
        X = None if out.x_bytes is None else parse_matrix_bytes(out.x_bytes)
        if X is None or not truth.is_minkowski_inverse(inst.A, X):
            return truth.WRONG_ANSWER
        code, crash = out.check
        if crash is not None:
            return truth.exception_kind(crash)
        if code == EXIT_NEGATIVE:
            return truth.AUDIT_FALSE_REJECT
        return None if code == EXIT_OK else f"exit_{code}"

    def fingerprint(self, out: CliOutput):
        return out.inverse, out.check, _digest(out.x_bytes)
