"""Compare what two source trees of minkinv return on one seeded corpus, byte for byte.

Usage: python3 tools/same_outputs.py OLD_SRC [NEW_SRC]

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts; NEW_SRC
defaults to this repository's.  The corpus is drawn once, with the
generators of NEW_SRC, and handed to both trees: existent, isotropic, block
and arbitrary draws of eight shapes at scales 1, 1e+-8 and 1e+-100,
``light_cone(eps)`` for eps = 1e-1 .. 1e-13 with their adjoints, and the
zero matrices of shapes 1x1, 1x4, 4x1, 3x4 and 4x4, 431 inputs in all.
Each tree runs in its own Python subprocess, with PYTHONPATH set to it,
and makes 28 calls on every input: ``cross_check`` plain and forced,
``mink_inverse``, the seven route entry points (block at the rank of A),
Zlobec at k=1, l=2 and the split form at k=2, l=1, ``compose_13m_14m``
on the base members, ``diagnose_existence``, ``one_three_m``,
``one_four_m``, the three witness constructions,
``check_candidate`` and ``moore_style_check`` on ``np.linalg.pinv(A)`` and
on the forced FRF result, ``full_rank_factorization``, ``hs_decomposition``,
``mink_rank_characterization``, ``bc_parameterization``, and
``rank_equation_solve`` on the border pair of ``bc_parameterization``.
Every call runs twice: cold, after the remembered factorization is dropped,
and warm, right after the calls before it on the same input: 24,136
outcomes with 260,600 fields.

Every field of every output is compared by its bytes: arrays, floats, ints,
bools and strings, and the type and message of a raised exception.  Each
field that differs is printed; where the two values are equal as numbers
(``np.array_equal``, or ``==`` for a float) it is marked "signed zeros
only", the one way two equal doubles can differ in their bytes.  The exit
status is 0 when every field is byte-identical, and 1 otherwise.

Standard library and numpy only.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SHAPES = ((4, 4), (5, 3), (3, 5), (6, 6), (7, 4), (4, 7), (8, 8), (6, 2))
SCALES = (1.0, 1e8, 1e-8, 1e100, 1e-100)


def light_cone(eps: float) -> np.ndarray:
    """A = x c* with x = (1, 1 - eps, 0, 0): R(A) approaches the light cone as eps -> 0."""
    x = np.array([1.0, 1.0 - eps, 0.0, 0.0])
    c = np.array([1.0, 0.3, 0.2j, 0.1])
    return np.outer(x, c.conj())


def corpus(mi) -> list[tuple[str, np.ndarray]]:
    """(label, A) of every input, drawn with the generators of the package ``mi``."""
    bases = []
    for m, n in SHAPES:
        k = min(m, n)
        for seed in (1, 2):
            for r in sorted({max(1, k // 2), k}):
                bases.append((f"existent {m}x{n} r{r} s{seed}",
                              mi.GenSpec(m, n, r, mi.GenKind.EXISTENT, seed)))
            bases.append((f"block {m}x{n} r{k - 1 or 1} s{seed}",
                          mi.GenSpec(m, n, k - 1 or 1, mi.GenKind.BLOCK_EXISTENT, seed)))
            bases.append((f"isotropic {m}x{n} s{seed}", mi.GenSpec(m, n, 1, mi.GenKind.ISOTROPIC, seed)))
            bases.append((f"arbitrary {m}x{n} s{seed}", mi.GenSpec(m, n, 0, mi.GenKind.ARBITRARY, seed)))
    inputs = []
    for label, spec in bases:
        A = mi.generate(spec)
        inputs += [(f"{label} x{s:g}", A * s) for s in SCALES]
    for j in range(1, 14):
        A = light_cone(10.0 ** -j)
        inputs += [(f"light_cone(1e-{j})", A), (f"adjoint of light_cone(1e-{j})", mi.mink_adjoint(A))]
    for m, n in ((1, 1), (1, 4), (4, 1), (3, 4), (4, 4)):
        inputs.append((f"zeros {m}x{n}", np.zeros((m, n))))
    return inputs


def calls(mi):
    """(name, call) of every entry point compared, in the order they run on one input."""
    return [
        ("cross_check", mi.cross_check),
        ("cross_check forced", lambda A: mi.cross_check(A, force=True)),
        ("mink_inverse", mi.mink_inverse),
        ("frf", mi.mink_inverse_frf),
        ("hs", mi.mink_inverse_hs),
        ("zlobec", mi.mink_inverse_zlobec),
        ("zlobec2", mi.mink_inverse_zlobec2),
        ("group", mi.mink_inverse_group),
        ("resolvent", mi.mink_inverse_resolvent),
        ("zlobec k=1 l=2", lambda A: mi.mink_inverse_zlobec(A, k=1, l=2)),
        ("zlobec2 k=2 l=1", lambda A: mi.mink_inverse_zlobec2(A, k=2, l=1)),
        ("diagnose_existence", mi.diagnose_existence),
        ("one_three_m", mi.one_three_m),
        ("one_four_m", mi.one_four_m),
        ("factorization_witnesses", mi.factorization_witnesses),
        ("sylvester_witnesses", mi.sylvester_witnesses),
        ("bjerhammar_witnesses", mi.bjerhammar_witnesses),
        ("check_candidate pinv", lambda A: mi.check_candidate(A, np.linalg.pinv(A))),
        ("moore_style_check pinv", lambda A: mi.moore_style_check(A, np.linalg.pinv(A))),
        ("check_candidate frf forced", lambda A: mi.check_candidate(A, _forced_frf(mi, A))),
        ("moore_style_check frf forced",
         lambda A: mi.moore_style_check(A, _forced_frf(mi, A))),
        ("block", lambda A: mi.mink_inverse_block(A, max(1, int(np.linalg.matrix_rank(A))))),
        ("compose", lambda A: mi.compose_13m_14m(A, mi.one_three_m(A), mi.one_four_m(A))),
        ("full_rank_factorization", mi.full_rank_factorization),
        ("hs_decomposition", mi.hs_decomposition),
        ("mink_rank_characterization", mi.mink_rank_characterization),
        ("bc_parameterization", mi.bc_parameterization),
        ("rank_equation_solve bc",
         lambda A: mi.rank_equation_solve(mi.RankEquationInstance(A, *mi.bc_parameterization(A)))),
    ]


def _forced_frf(mi, A):
    """The forced FRF result for A, the candidate that the auditors judge."""
    return mi.mink_inverse_frf(A, force=True).result


def leaves(value, path: str):
    """(path, leaf) of every field of ``value``, through tuples, lists, dicts and dataclasses."""
    if isinstance(value, BaseException):
        yield path, ("raised", type(value).__name__, str(value))
    elif isinstance(value, (tuple, list)):
        for i, v in enumerate(value):
            yield from leaves(v, f"{path}[{i}]")
    elif isinstance(value, dict):
        for k in sorted(value):
            yield from leaves(value[k], f"{path}[{k!r}]")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for fld in dataclasses.fields(value):
            yield from leaves(getattr(value, fld.name), f"{path}.{fld.name}")
    else:
        yield path, value


def run_tree(corpus_file: str, out_file: str) -> None:
    """Run every call on every input with the minkinv on PYTHONPATH; pickle {key: leaf}."""
    import minkinv as mi
    from minkinv import minkowski

    forget = getattr(minkowski, "_forget_factor", lambda: None)
    with open(corpus_file, "rb") as fh:
        inputs = pickle.load(fh)
    out = {}
    for label, A in inputs:
        for mode in ("cold", "warm"):
            forget()
            for name, call in calls(mi):
                if mode == "cold":
                    forget()
                try:
                    value = call(A)
                except Exception as exc:       # a raise is an outcome to compare
                    value = exc
                for path, leaf in leaves(value, name):
                    out[(label, mode, name, path)] = leaf
    with open(out_file, "wb") as fh:
        pickle.dump({"file": mi.__file__, "leaves": out}, fh)


def same_bytes(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, float) and isinstance(b, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return type(a) is type(b) and a == b


def same_values(a, b) -> bool:
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return isinstance(a, float) and isinstance(b, float) and a == b


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--run":
        run_tree(argv[1], argv[2])
        return 0
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(argv[0]).resolve(), Path(argv[1] if len(argv) == 2 else ROOT / "src").resolve()]
    sys.path.insert(0, str(trees[1]))
    import minkinv as mi

    inputs = corpus(mi)
    results = []
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        corpus_file = os.path.join(tmp, "corpus.pickle")
        with open(corpus_file, "wb") as fh:
            pickle.dump(inputs, fh)
        for i, tree in enumerate(trees):
            out_file = os.path.join(tmp, f"out{i}.pickle")
            env = dict(os.environ, PYTHONPATH=str(tree), PYTHONDONTWRITEBYTECODE="1")
            proc = subprocess.run([sys.executable, __file__, "--run", corpus_file, out_file],
                                  env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{tree}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 2
            with open(out_file, "rb") as fh:
                result = pickle.load(fh)
            if not Path(result["file"]).resolve().is_relative_to(tree):
                print(f"{tree}: the subprocess imported {result['file']}", file=sys.stderr)
                return 2
            results.append(result["leaves"])

    old, new = results
    differ, zeros = [], []
    for key in sorted(old.keys() | new.keys(), key=repr):
        a, b = old.get(key, "<absent>"), new.get(key, "<absent>")
        if not same_bytes(a, b):
            differ.append(key)
            if same_values(a, b):
                zeros.append(key)
            print(" | ".join(key) + (": signed zeros only" if same_values(a, b) else ": differs"))
    outcomes = {key[:3] for key in differ}
    zero_outcomes = outcomes - {key[:3] for key in differ if key not in zeros}
    print(f"{len(inputs)} inputs, {len({key[:3] for key in old})} outcomes (input, cold or warm, "
          f"call), {len(old.keys() | new.keys())} fields: {len(differ)} fields differ in "
          f"{len(outcomes)} outcomes; {len(zeros)} fields, and {len(zero_outcomes)} whole "
          f"outcomes, differ in signed zeros only")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
