"""The CLI error boundary under generated state files and flags.

Every request runs in-process through ``cli.main`` and must end with exit
code 0, 1 or 2 and no traceback; exit 2 prints exactly one ``error:`` line.
Sizes stay far below their caps and the roof budgets are tiny, so no
example allocates much or runs long.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tritangle import cli

seeds = st.integers(min_value=0, max_value=2**32 - 1)

# Float-ish flag values: finite numbers in every notation, the non-finite
# words, overflow, and text that is not a number at all.
float_texts = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-2.0, 2.0).map(lambda x: f"{x:.3e}"),
    st.sampled_from(["nan", "inf", "-inf", "1e309", "-1e-3", "-.5", "0x10", "", "abc", "--", "1,5"]),
)
# Integer flag values that are not small integers: each is a usage error.
bad_int_texts = st.sampled_from(["", "2.5", "x", "1e2", "99999999999999999999999"])
json_numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.just(10**400),
)
json_junk = st.recursive(
    st.one_of(json_numbers, st.booleans(), st.none(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=12,
)


def pairs(values):
    return [[float(v.real), float(v.imag)] for v in values]


@st.composite
def state_payloads(draw):
    # Valid pure and mixed states on 1-4 qubits, the same with one entry
    # replaced, schema-shaped junk, and text that is not JSON.
    kind = draw(st.sampled_from(["pure", "mixed", "perturbed", "junk", "text"]))
    if kind == "text":
        return draw(st.text(max_size=20))
    if kind == "junk":
        body = {"num_qubits": draw(st.one_of(st.integers(-1, 5), json_junk))}
        body[draw(st.sampled_from(["amplitudes", "matrix", "other"]))] = draw(json_junk)
        return json.dumps(draw(st.one_of(st.just(body), json_junk)))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(seeds))
    dim = 2**n
    if kind == "pure":
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return json.dumps({"num_qubits": n, "amplitudes": pairs(v / np.linalg.norm(v))})
    rank = draw(st.integers(1, dim))
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    rows = [pairs(row) for row in m / np.trace(m).real]
    if kind == "perturbed":
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        rows[i][j] = draw(st.one_of(st.lists(json_numbers, min_size=2, max_size=2), json_junk))
    return json.dumps({"num_qubits": n, "matrix": rows})


def roof_flags():
    return st.lists(
        st.one_of(
            st.tuples(st.just("--roof-restarts"), st.one_of(st.integers(-1, 2).map(str), bad_int_texts)),
            st.tuples(st.just("--roof-max-iters"), st.one_of(st.integers(0, 2).map(str), bad_int_texts)),
            st.tuples(st.just("--roof-ensemble-size"), st.one_of(st.integers(0, 10).map(str), bad_int_texts)),
        ),
        max_size=3,
    )


def common_flags():
    return st.lists(
        st.one_of(
            st.tuples(st.just("--seed"), st.one_of(st.integers(-2, 2**64).map(str), bad_int_texts)),
            st.tuples(st.just("--format"), st.sampled_from(["csv", "json", "xml", ""])),
            st.tuples(st.just("--out"), st.sampled_from(["OUT", "MISSING"])),
        ),
        max_size=2,
    )


def sweep_flags(steps):
    return st.lists(
        st.one_of(
            st.tuples(st.just("--start"), float_texts),
            st.tuples(st.just("--stop"), float_texts),
            st.tuples(st.just("--steps"), st.one_of(steps.map(str), bad_int_texts)),
        ),
        max_size=3,
    )


@st.composite
def requests(draw):
    # (argv, state file text or None); the argv names the state file STATE.
    # The roof search is always pinned to a tiny budget.
    budget = ["--roof-restarts", "1", "--roof-max-iters", "2"]
    command = draw(st.sampled_from(["measures", "teleport", "noisy", "fig1", "fig4", "validate", "junk"]))
    state = None
    if command == "measures":
        state = draw(state_payloads())
        argv = ["measures", "STATE"] + budget
        flags = draw(roof_flags()) + draw(common_flags())
    elif command == "teleport":
        argv = ["teleport", draw(st.sampled_from(["ghz", "w", "x"]))]
        flags = draw(st.lists(st.tuples(st.sampled_from(["--p", "--theta", "--phi"]), float_texts), max_size=3))
        flags += draw(common_flags())
    elif command == "noisy":
        # noisy runs no search, so it takes no roof flags.
        argv = ["noisy", "--steps", "2"]
        flags = draw(st.lists(st.tuples(st.just("--kappa-t"), float_texts), max_size=1))
        flags += draw(sweep_flags(st.integers(-1, 3))) + draw(common_flags())
    elif command in ("fig1", "fig4"):
        argv = [command]
        flags = draw(sweep_flags(st.integers(-1, 4))) + draw(common_flags())
    elif command == "validate":
        argv = ["validate", draw(st.sampled_from(["unitarity", "everything"]))]
        flags = draw(common_flags())
    else:
        argv = draw(st.lists(st.text(max_size=6), max_size=3))
        flags = []
    for name, value in flags:
        argv += [name, value]
    return argv, state


# Finite entries near the float limit, which fail the trace (twice), the
# positivity and the norm check, with no numpy warning on the way.
_QUARTER = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
_QUARTER[0][1] = _QUARTER[1][0] = [1e308, 0.0]
HUGE_ENTRY_FILES = [
    json.dumps({"num_qubits": 3, "matrix": [[[1e308, 0.0]] * 8] * 8}),
    json.dumps({"num_qubits": 1, "matrix": [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e308, 0.0]]]}),
    json.dumps({"num_qubits": 2, "matrix": _QUARTER}),
    json.dumps({"num_qubits": 1, "amplitudes": [[1e200, 0.0], [0.0, 0.0]]}),
]
MEASURES_ARGV = ["measures", "STATE", "--roof-restarts", "1", "--roof-max-iters", "2"]


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@given(requests())
@example((MEASURES_ARGV, HUGE_ENTRY_FILES[0]))
@example((MEASURES_ARGV, HUGE_ENTRY_FILES[1]))
@example((MEASURES_ARGV, HUGE_ENTRY_FILES[2]))
@example((MEASURES_ARGV, HUGE_ENTRY_FILES[3]))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_request_ends_in_a_known_exit_code(request):
    argv, state = request
    with tempfile.TemporaryDirectory() as tmp:
        paths = {
            "STATE": os.path.join(tmp, "state.json"),
            "OUT": os.path.join(tmp, "out.txt"),
            "MISSING": os.path.join(tmp, "missing", "out.txt"),
        }
        if state is not None:
            with open(paths["STATE"], "w", encoding="utf-8") as fh:
                fh.write(state)
        code, out, err = run_in_process([paths.get(a, a) for a in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
    elif code == 0:
        assert err == ""
