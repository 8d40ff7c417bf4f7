"""Both kernel backends must agree with each other and with sympy's product
over Q(z), outside our arithmetic."""

import hashlib
import importlib.util
import json
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sympdec import _kernels_py, kernels
from sympdec.cli import main
from sympdec.matrix import ExactMatrix

from conftest import over_q_zeta8

try:
    from sympdec import _speedups
except ImportError:
    _speedups = None

BACKENDS = [("python", _kernels_py.matmul_num)]
if _speedups is not None:
    BACKENDS.append(("compiled", _speedups.matmul_num))


def scalar_reference(a: ExactMatrix, b: ExactMatrix):
    """a @ b as sympy multiplies it over Q(z), with no flat kernel."""
    return over_q_zeta8(a) * over_q_zeta8(b)


def random_flat(n, k, magnitude, rng):
    return [rng.randint(-magnitude, magnitude) for _ in range(n * k * 4)]


@pytest.mark.parametrize("name,fn", BACKENDS)
def test_backend_matches_scalar_reference(name, fn):
    rng = random.Random(99)
    for _ in range(20):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = ExactMatrix(n, k, random_flat(n, k, 30, rng), rng.randint(1, 6))
        b = ExactMatrix(k, m, random_flat(k, m, 30, rng), rng.randint(1, 6))
        got = ExactMatrix(n, m, fn(a.num, b.num, n, k, m), a.den * b.den)
        assert over_q_zeta8(got) == scalar_reference(a, b)


ENTRY = st.one_of(st.integers(-30, 30), st.integers(-(1 << 100), 1 << 100))


@st.composite
def factor_pair(draw):
    """(n, k, m, a, b) with a the n x k and b the k x m flat numerators."""
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    a = draw(st.lists(ENTRY, min_size=4 * n * k, max_size=4 * n * k))
    b = draw(st.lists(ENTRY, min_size=4 * k * m, max_size=4 * k * m))
    return n, k, m, a, b


@st.composite
def gaussian_pair(draw):
    """(n, k, m, a, b) with entries in Z[i] (odd components zero): dense, with
    all-zero rows, or a checkerboard of purely real and purely imaginary entries."""
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    shape = draw(st.sampled_from(["dense", "zero rows", "checker"]))

    def flat(rows, cols):
        out = []
        for r in range(rows):
            zero_row = shape == "zero rows" and draw(st.booleans())
            for c in range(cols):
                re, im = (0, 0) if zero_row else (draw(ENTRY), draw(ENTRY))
                if shape == "checker":
                    re, im = (re, 0) if (r + c) % 2 == 0 else (0, im)
                out += [re, 0, im, 0]
        return out

    return n, k, m, flat(n, k), flat(k, m)


GAUSSIAN_EXAMPLES = [
    (0, 2, 3, [], [1, 0, -1, 0] * 6),
    (2, 0, 3, [], []),
    (2, 3, 0, [0, 0, 5, 0] * 6, []),
    (1, 2, 1, [1 << 70, 0, -(1 << 65), 0, 0, 0, 3, 0], [(1 << 64) + 1, 0, 0, 0, 0, 0, -(1 << 90), 0]),
]


def _with_examples(test):
    for case in GAUSSIAN_EXAMPLES:
        test = example(case)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(st.one_of(factor_pair(), gaussian_pair()))
@_with_examples
@example((0, 2, 3, [], [1] * 24))
@example((2, 0, 3, [], []))
@example((2, 3, 0, [-1] * 24, []))
@example((1, 1, 1, [1 << 70, -(1 << 65), 3, 0], [(1 << 64) + 1, 0, -(1 << 90), 5]))
def test_python_kernel_matches_scalar_reference_property(case):
    n, k, m, a, b = case
    got = _kernels_py.matmul_num(a, b, n, k, m)
    assert len(got) == 4 * n * m
    assert over_q_zeta8(ExactMatrix(n, m, got)) == scalar_reference(ExactMatrix(n, k, a),
                                                                    ExactMatrix(k, m, b))


def structured_flat(n, k, rng):
    """Flat numerators with zero rows and sparse rows whose nonzeros are a mix of
    rational integers (a1 = a2 = a3 = 0) and full Z[z] entries, small and big."""
    out = []
    for _ in range(n):
        kind = rng.randrange(3)          # zero row, sparse row, dense row
        for _ in range(k):
            if kind == 0 or (kind == 1 and rng.random() < 0.7):
                out += [0, 0, 0, 0]
                continue
            mag = rng.choice([3, 1 << 70])
            if rng.random() < 0.5:
                out += [rng.randint(-mag, mag), 0, 0, 0]
            else:
                out += [rng.randint(-mag, mag) for _ in range(4)]
    return out


def structured_cases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        yield n, k, m, structured_flat(n, k, rng), structured_flat(k, m, rng)


def test_python_kernel_on_sparse_and_rational_structure():
    for n, k, m, a, b in structured_cases(60, 21):
        got = _kernels_py.matmul_num(a, b, n, k, m)
        assert over_q_zeta8(ExactMatrix(n, m, got)) == scalar_reference(ExactMatrix(n, k, a),
                                                                        ExactMatrix(k, m, b))
    # a signed permutation times a dense matrix: rows of the product are signed rows
    rng = random.Random(22)
    perm, signs = [2, 0, 3, 1], [1, -1, -1, 1]
    a = [0] * 64
    for i, (c, e) in enumerate(zip(perm, signs)):
        a[4 * (4 * i + c)] = e
    b = [rng.randint(-9, 9) for _ in range(4 * 4 * 3)]
    got = _kernels_py.matmul_num(a, b, 4, 4, 3)
    assert got == [e * x for c, e in zip(perm, signs) for x in b[12 * c:12 * (c + 1)]]


@settings(max_examples=50, deadline=None)
@given(gaussian_pair())
@_with_examples
def test_gaussian_inputs_match_the_compiled_kernel_property(compiled_speedups, case):
    n, k, m, a, b = case
    assert _kernels_py.matmul_num(a, b, n, k, m) == compiled_speedups.matmul_num(a, b, n, k, m)


def _kernel_matches_reference(n, k, m, a, b):
    got = _kernels_py.matmul_num(a, b, n, k, m)
    assert len(got) == 4 * n * m
    assert over_q_zeta8(ExactMatrix(n, m, got)) == scalar_reference(ExactMatrix(n, k, a),
                                                                    ExactMatrix(k, m, b))


def test_python_kernel_on_empty_shapes_zero_lines_and_single_nonzeros():
    """The kernel finds a row's nonzero components without testing each one; it must
    still see every one: shapes with a zero dimension, all-zero rows and columns,
    and rows whose one nonzero component sits at each offset, the last included."""
    rng = random.Random(41)
    for n, k, m in ((0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 2), (2, 0, 0)):
        _kernel_matches_reference(n, k, m, random_flat(n, k, 9, rng), random_flat(k, m, 9, rng))
    for n, k, m in ((3, 3, 3), (2, 4, 3), (1, 1, 1)):
        a, b = random_flat(n, k, 9, rng), random_flat(k, m, 9, rng)
        a[4 * k * (n - 1):] = [0] * (4 * k)             # a's last row
        b[:4 * m] = [0] * (4 * m)                       # b's first row
        for i in range(n):                              # a's first column
            a[4 * k * i:4 * k * i + 4] = [0] * 4
        for t in range(k):                              # b's last column
            b[4 * (m * t + m - 1):4 * m * (t + 1)] = [0] * 4
        _kernel_matches_reference(n, k, m, a, b)
        _kernel_matches_reference(n, k, m, [0] * (4 * n * k), b)
        _kernel_matches_reference(n, k, m, a, [0] * (4 * k * m))
    # one nonzero component in a's row, at every offset, against a dense b; and in
    # each row of b, at every offset, against a dense a
    for k, m in ((1, 1), (3, 2), (2, 3)):
        b = random_flat(k, m, 9, rng)
        for p in range(4 * k):
            a = [0] * (4 * k)
            a[p] = rng.choice((-3, 2, 1 << 70))
            _kernel_matches_reference(1, k, m, a, b)
        a = random_flat(2, k, 9, rng)
        for p in range(4 * m):
            b = [0] * (4 * k * m)
            for t in range(k):
                b[4 * m * t + p] = rng.choice((-3, 2, 1 << 70))
            _kernel_matches_reference(2, k, m, a, b)


def test_odd_components_in_one_factor_match_the_scalar_reference():
    """Z[i] factors leave z b and z^3 b unlisted; an odd component in either factor,
    or a factor of pure z or z^3 entries, must still give the full product."""
    rng = random.Random(31)
    for odd in ("a", "b", "both", "neither", "only odd"):
        for _ in range(5):
            n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            a, b = random_flat(n, k, 9, rng), random_flat(k, m, 9, rng)
            a[1::2], b[1::2] = [0] * (len(a) // 2), [0] * (len(b) // 2)
            if odd in ("a", "both"):
                a[4 * rng.randrange(n * k) + rng.choice((1, 3))] = rng.choice((-2, 1))
            if odd in ("b", "both"):
                b[4 * rng.randrange(k * m) + rng.choice((1, 3))] = rng.choice((-2, 1))
            if odd == "only odd":
                a[0::2] = [0] * (len(a) // 2)
                a[1::2] = [rng.randint(-9, 9) for _ in range(len(a) // 2)]
            got = _kernels_py.matmul_num(a, b, n, k, m)
            assert over_q_zeta8(ExactMatrix(n, m, got)) == scalar_reference(ExactMatrix(n, k, a),
                                                                            ExactMatrix(k, m, b))


@pytest.mark.parametrize("bounds", [[], ["--max-m", "1", "--max-n", "8", "--max-r", "1",
                                         "--samples", "1"]])
def test_verify_multiplies_only_gaussian_rationals(monkeypatch, capsys, bounds):
    """Every product verify makes has entries in Q(i), which is what the Python
    kernel's speed on verify rests on; an entry with a z or z^3 part (such as
    sqrt2) would make it list z b and z^3 b and pay up to 16 products per entry."""
    real, odd, calls = kernels.matmul_num, [], []

    def watched(a, b, n, k, m):
        calls.append((n, k, m))
        if any(a[1::2]) or any(b[1::2]):
            odd.append((n, k, m))
        return real(a, b, n, k, m)

    monkeypatch.setattr(kernels, "matmul_num", watched)
    assert main(["verify", "all", "--seed", "0", *bounds]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    assert calls and not odd


SPEEDUPS_C = Path(__file__).resolve().parents[1] / "src" / "sympdec" / "_speedups.c"
SPEEDUPS_PYX = SPEEDUPS_C.with_suffix(".pyx")
# sha256 of the _speedups.pyx that the shipped _speedups.c was generated from
SPEEDUPS_PYX_SHA256 = "f024339f7e6acedc422f83eb0eea598dcebea2e20e963775a794525260984f39"


def test_shipped_c_was_generated_from_this_pyx():
    digest = hashlib.sha256(SPEEDUPS_PYX.read_bytes()).hexdigest()
    assert digest == SPEEDUPS_PYX_SHA256, (
        "_speedups.pyx changed since _speedups.c was generated: regenerate the .c "
        "(cython src/sympdec/_speedups.pyx) and record the new sha256 in SPEEDUPS_PYX_SHA256")


@pytest.fixture(scope="session")
def compiled_speedups(tmp_path_factory):
    """The shipped _speedups.c, compiled with the system C compiler into a temporary
    directory and imported from there; the package's own backend is left alone."""
    cc = shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0]) or shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler found to build the shipped _speedups.c")
    out = tmp_path_factory.mktemp("speedups") / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    includes = {sysconfig.get_paths()[key] for key in ("include", "platinclude")}
    build = subprocess.run([cc, "-O2", "-shared", "-fPIC", *(f"-I{d}" for d in sorted(includes)),
                            str(SPEEDUPS_C), "-o", str(out)], capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    spec = importlib.util.spec_from_file_location("sympdec._speedups", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_backends_agree_across_magnitudes(compiled_speedups):
    rng = random.Random(4)
    for _ in range(150):
        n, k, m = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        mag = rng.choice([1, 50, 1 << 20, 1 << 31, 1 << 45, 1 << 80])
        a = random_flat(n, k, mag, rng)
        b = random_flat(k, m, mag, rng)
        assert compiled_speedups.matmul_num(a, b, n, k, m) == _kernels_py.matmul_num(a, b, n, k, m)


def test_backends_agree_on_sparse_and_rational_structure(compiled_speedups):
    for n, k, m, a, b in structured_cases(60, 23):
        assert compiled_speedups.matmul_num(a, b, n, k, m) == _kernels_py.matmul_num(a, b, n, k, m)


def test_compiled_rejects_bad_lengths(compiled_speedups):
    with pytest.raises(ValueError):
        compiled_speedups.matmul_num([0] * 3, [0] * 4, 1, 1, 1)


def test_active_backend_is_exposed():
    assert kernels.backend() in ("python", "compiled")


def _version(*setup):
    """`sympdec --version` in a fresh interpreter, after the given setup lines."""
    code = "\n".join([*setup, "from sympdec.cli import main", "main(['--version'])"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return " ".join(proc.stdout.split())


def test_version_names_the_backend_and_why():
    out = _version()
    assert f"(kernels: {kernels.describe()})" in out
    if kernels.backend() == "python":
        assert kernels.IMPORT_ERROR and kernels.IMPORT_ERROR in out
    # a kernel that cannot import: the fallback keeps the ImportError's text
    blocked = _version("import sys", "sys.modules['sympdec._speedups'] = None")
    assert "kernels: python; compiled kernel not imported: import of sympdec._speedups halted" in blocked


def test_version_of_the_compiled_backend_has_no_reason(compiled_speedups):
    out = _version("import importlib.util, sys",
                   f"spec = importlib.util.spec_from_file_location('sympdec._speedups', "
                   f"{compiled_speedups.__file__!r})",
                   "sys.modules['sympdec._speedups'] = module = importlib.util.module_from_spec(spec)",
                   "spec.loader.exec_module(module)")
    assert out.endswith("(kernels: compiled)")
