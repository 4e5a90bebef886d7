import hashlib

import numpy as np
import pytest
from scipy import sparse

from conftest import assert_bitwise_csr, sorted_csr
from fockcharge import fock, suites
from fockcharge.charge import max_abs
from fockcharge.involution import AntiUnitary


BUILDERS = ("creator_b", "annihilator_b", "creator_c", "annihilator_c",
            "field_op", "field_adjoint")


def anti(A, B):
    return A @ B + B @ A


def oracle_anticommutator(A, B, shift=0.0):
    """{A, B} - shift I by scipy's sparse products and adds: the values
    `table_anticommutator` reproduces bit for bit."""
    out = anti(A, B)
    if shift:
        out = out - shift * sparse.identity(A.shape[0], format="csr")
    return out


def table_anticommutator(n, x, y, shift=0.0):
    """{A, B} - shift I on the classes of G.G, read through the shared
    reduction `fock._class_values` of A B and of B A, as
    `fock._anticommutator_deviations` adds them."""
    classes = fock._product_classes(n)
    off_xy, diag_xy = fock._class_values(classes, x, y)
    off_yx, diag_yx = fock._class_values(classes, y, x)
    return np.concatenate([off_xy + off_yx, diag_xy + diag_yx - shift])


# the car-check's twelve anticommutators {A(f), B(g)} - shift I
CAR_CHECKS = [
    ("bb", "b", "b", None),
    ("b*b*", "b*", "b*", None),
    ("b*b-car", "b*", "b", lambda model, f, g: np.vdot(g, model.p_plus @ f)),
    ("cc", "c", "c", None),
    ("c*c*", "c*", "c*", None),
    ("c*c-car", "c*", "c", lambda model, f, g: np.conj(np.vdot(g, model.p_minus @ f))),
    ("bc", "b", "c", None),
    ("bc*", "b", "c*", None),
    ("b*c", "b*", "c", None),
    ("b*c*", "b*", "c*", None),
    ("PsiPsi", "Psi", "Psi", None),
    ("Psi*Psi-car", "Psi*", "Psi", lambda model, f, g: np.vdot(g, f)),
]


def operators(model, f):
    """Each operator of f as (sparse builder, coefficient row on the terms
    of the full pattern)."""
    bs, b, cs, c = fock._ladder_coeffs(model, f)
    return {"b*": (fock.creator_b(model, f), bs), "b": (fock.annihilator_b(model, f), b),
            "c*": (fock.creator_c(model, f), cs), "c": (fock.annihilator_c(model, f), c),
            "Psi": (fock.field_op(model, f), b + cs),
            "Psi*": (fock.field_adjoint(model, f), bs + c)}


def kron_creators(nmodes):
    """Jordan-Wigner creators as Kronecker products: mode 0 is the leftmost
    factor and Z sits on the modes before the target mode."""
    z = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    up = sparse.csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))  # |1><0|
    eye = sparse.identity(2, format="csr")
    ops = []
    for k in range(nmodes):
        factors = [z] * k + [up] + [eye] * (nmodes - k - 1)
        op = factors[0]
        for f in factors[1:]:
            op = sparse.kron(op, f, format="csr")
        op.eliminate_zeros()
        ops.append(op.astype(complex))
    return ops


def oracle_operators(model, f):
    """The six builders as sums of Kronecker creators and their adjoints."""
    ops = kron_creators(model.n)

    def combine(coeffs, modes):
        out = sparse.csr_matrix((model.fock_dim, model.fock_dim), dtype=complex)
        for c, k in zip(coeffs, modes):
            out = out + c * ops[k]
        return out

    f = np.asarray(f, dtype=complex)
    bs = combine(model.basis_plus.conj().T @ f, range(model.d_plus))
    target = model.conj.apply(model.p_minus @ f)
    cs = combine(model.basis_antip.conj().T @ target, range(model.d_plus, model.n))
    b = bs.conj().T.tocsr()
    c = cs.conj().T.tocsr()
    return {"creator_b": bs, "annihilator_b": b, "creator_c": cs, "annihilator_c": c,
            "field_op": (b + cs).tocsr(), "field_adjoint": (bs + c).tocsr()}


def assert_same_csr(A, B):
    assert A.format == B.format == "csr"
    assert A.shape == B.shape
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.data, B.data)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 12])
def test_builders_equal_kronecker_oracle(n):
    rng = np.random.default_rng(n)
    model = fock.random_model(n, rng)
    fs = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(3)]
    fs += [model.basis_plus[:, 0], model.basis_minus[:, -1]]
    for f in fs:
        expected = oracle_operators(model, f)
        for name in BUILDERS:
            assert_same_csr(getattr(fock, name)(model, f), expected[name])


@pytest.mark.parametrize("n", [2, 6])
def test_builders_of_zero_vector_store_nothing(n):
    model = fock.random_model(n, np.random.default_rng(n))
    expected = oracle_operators(model, np.zeros(n))
    for name in BUILDERS:
        op = getattr(fock, name)(model, np.zeros(n))
        assert op.nnz == 0
        assert_same_csr(op, expected[name])


def test_in_place_changes_do_not_reach_the_pattern_cache(model6, rng):
    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    expected = oracle_operators(model6, f)
    for name in BUILDERS:
        op = getattr(fock, name)(model6, f)
        op.data[:] = 0
        op.eliminate_zeros()
        op.sort_indices()
        assert op.nnz == 0
        assert_same_csr(getattr(fock, name)(model6, f), expected[name])


def test_cached_patterns_are_read_only(model6, rng):
    """A matrix that shares a cached pattern's arrays cannot rewrite them in
    place, so the later operators of that mode count stay intact."""
    pattern = fock._jw_pattern(6)
    table = fock._product_pattern(6)
    for arr in (*fock._jw_terms(6), *pattern, *table, *fock._product_classes(6)):
        assert not arr.flags.writeable
    for indptr, indices, *_ in (pattern, table):
        shared = sparse.csr_matrix((np.zeros(indices.size), indices, indptr),
                                   shape=(model6.fock_dim, model6.fock_dim))
        with pytest.raises(ValueError, match="read-only"):
            shared.eliminate_zeros()
        shared.has_sorted_indices = False
        with pytest.raises(ValueError, match="read-only"):
            shared.sort_indices()
    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    assert_same_csr(fock.field_op(model6, f), oracle_operators(model6, f)["field_op"])


def test_p_minus_is_computed_once(model6):
    assert model6.p_minus is model6.p_minus
    expected = np.eye(6) - model6.p_plus
    assert model6.p_minus.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [2, 6, 8, 12])  # car-check runs at n = 6, 8, 12
def test_builders_are_the_full_pattern_restricted_to_their_terms(n):
    """Every builder is G = `_jw_pattern(n)` with zeros on its absent terms:
    the coefficient rows the product table multiplies."""
    rng = np.random.default_rng(n)
    model = fock.random_model(n, rng)
    for f in (rng.normal(size=n) + 1j * rng.normal(size=n), model.basis_plus[:, 0]):
        for op, coeffs in operators(model, f).values():
            assert_same_csr(op, fock._jw_operator(model, coeffs))


@pytest.mark.parametrize("n", [2, 4, 6, 8, 12])
def test_anticommutator_table_matches_sparse_oracle_bitwise(n):
    """The car-check's deviations equal max_abs of the sparse route bit for
    bit, and so does every value of {A, B} - shift I.  Each case runs once
    more with a shift of the other kind: the CAR cases with none, whose
    diagonal products are not zero, and the others with one.  The deviations
    come out the same one row at a time and stacked, over several batches
    and a partial last one at n = 12."""
    rng = np.random.default_rng(40 + n)
    model = fock.random_model(n, rng)
    xs, ys, shifts, expected_devs = [], [], [], []
    for _ in range(3):
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        of, og = operators(model, f), operators(model, g)
        for name, a, b, shift_of in CAR_CHECKS:
            (A, x), (B, y) = of[a], og[b]
            for shift in [shift_of(model, f, g), 0.0] if shift_of else [0.0, 0.25 - 0.5j]:
                expected = oracle_anticommutator(A, B, shift)
                dev = max_abs(expected)
                assert fock._anticommutator_deviations(n, [x], [y], shift)[0] == dev, name
                values = table_anticommutator(n, x, y, shift)
                assert_bitwise_csr(fock._table_matrix(n, values), sorted_csr(expected))
                xs.append(x)
                ys.append(y)
                shifts.append(shift)
                expected_devs.append(dev)
    # 71 rows, 17 of them with a nonzero diagonal product: at n = 8
    # off-diagonal batches of 64 and 7, at n = 12 of 28, 28 and 15, and
    # diagonal batches of 4, 4, 4, 4 and 1
    rows = len(xs) - 1
    if n == 12:
        assert fock._batch_rows(n) == (28, 4) and rows % 28 != 0 and 17 % 4 != 0
    stacked = fock._anticommutator_deviations(n, xs[:rows], ys[:rows], shifts[:rows])
    assert np.array_equal(stacked, expected_devs[:rows])


@pytest.mark.parametrize("n", [2, 4, 6, 8, 12])
def test_anticommutator_batches_bound_their_temporaries(n, monkeypatch):
    """A batch's widest temporaries, its product tables, off-diagonal class
    values and diagonals, hold at most 2**14 complex entries: in the
    off-diagonal pass over every row and in the diagonal pass over the rows
    with a nonzero diagonal product, here all of them."""
    off_rows, diag_rows = fock._batch_rows(n)
    classes = fock._product_classes(n).pq.shape[1]
    assert off_rows >= 1 and diag_rows >= 1
    assert off_rows * max(4 * n * n, classes) <= 2 ** 14
    assert diag_rows * max(4 * n * n, 2 ** n) <= 2 ** 14
    sizes = {}

    def recorded(name):
        reduce = getattr(fock, name)

        def wrapped(*args):
            out = reduce(*args)
            sizes.setdefault(name, []).append(out.size)
            return out
        return wrapped

    for name in ("_products", "_off_values", "_diag_values"):
        monkeypatch.setattr(fock, name, recorded(name))
    rng = np.random.default_rng(n)
    x, y = (rng.normal(size=(2 * off_rows + 1, 2 * n)) + 1j * rng.normal(size=(2 * off_rows + 1, 2 * n))
            for _ in range(2))
    fock._anticommutator_deviations(n, x, y, 0.5)
    assert sorted(sizes) == ["_diag_values", "_off_values", "_products"]
    assert max(max(s) for s in sizes.values()) <= 2 ** 14


def test_car_check_gathers_a_diagonal_for_three_of_twelve_rows(monkeypatch):
    """Only the three CAR kinds of a pair have a nonzero diagonal product;
    the other nine deviations read no 2^n diagonal.  Over the car-check's
    100 pairs 300 rows gather one, for A B and for B A."""
    gathered = []
    diag_values = fock._diag_values
    monkeypatch.setattr(fock, "_diag_values",
                        lambda classes, P: gathered.append(P.shape[0]) or diag_values(classes, P))
    rng = np.random.default_rng(6)
    model = fock.random_model(6, rng)
    of, og = (operators(model, rng.normal(size=6) + 1j * rng.normal(size=6)) for _ in range(2))
    with_diagonal = []
    for name, a, b, _ in CAR_CHECKS:
        gathered.clear()
        fock._anticommutator_deviations(6, [of[a][1]], [og[b][1]], 0.0)
        if gathered:
            with_diagonal.append(name)
    assert with_diagonal == ["b*b-car", "c*c-car", "Psi*Psi-car"]
    gathered.clear()
    assert all(c.passed for c in car_checks().values())
    assert sum(gathered) == 2 * 3 * 100


def car_checks():
    """The car-check's values at the default seed, by check name."""
    result = suites.run_car_check(suites.ExperimentConfig())
    return {c.name: c for c in result.checks}


def test_car_adjoint_builds_one_operator_pair_per_mode_count(monkeypatch):
    """car/adjoint compares coefficient rows per pair and builds Psi*(f) and
    Psi(f) once for each of the mode counts 6, 8 and 12."""
    calls = []
    build = fock._jw_operator
    monkeypatch.setattr(fock, "_jw_operator", lambda *a: calls.append(a) or build(*a))
    checks = car_checks()
    assert len(calls) == 6
    assert checks["car/adjoint"].value == 0.0 and all(c.passed for c in checks.values())


@pytest.mark.parametrize("mode", [0, -1], ids=["particle", "antiparticle"])
def test_car_adjoint_fails_on_a_flipped_lowering_sign(monkeypatch, mode):
    """The pattern side: one mode lowered with the wrong sign breaks
    Psi*(f) = Psi(f)^dagger.  The anticommutators read the product table,
    not the pattern, so no other check sees it."""
    pattern = fock._jw_pattern

    def flipped(n):
        indptr, indices, pos, sign = pattern(n)
        return indptr, indices, pos, np.where(pos == n + mode % n, -sign, sign)

    monkeypatch.setattr(fock, "_jw_pattern", flipped)
    failed = [name for name, c in car_checks().items() if not c.passed]
    assert failed == ["car/adjoint"]


def test_car_adjoint_fails_on_b_off_the_conjugate_of_b_star(monkeypatch):
    """The coefficient side, per pair: the first f's b(f) row is b*(f)'s,
    unconjugated.  The operators built on the mode count's last f never see
    it, so the row comparison must."""
    ladder = fock._ladder_coeffs
    calls = []

    def unconjugated(model, f):
        out = ladder(model, f)
        if not calls:
            n, d = model.n, model.d_plus
            out[1, n:n + d] = out[0, :d]
        calls.append(f)
        return out

    monkeypatch.setattr(fock, "_ladder_coeffs", unconjugated)
    assert not car_checks()["car/adjoint"].passed


@pytest.mark.parametrize("n, classes", [(2, 4), (6, 100), (8, 196), (12, 484)])
def test_product_table_shape(n, classes):
    """Two terms per off-diagonal class, n per diagonal entry, and one
    stored entry of G.G per pair of states that differ in no mode or in
    two; every class is used."""
    table = fock._product_classes(n)
    indptr, _, cls = fock._product_pattern(n)
    assert table.pq.shape == table.sign.shape == (2, classes)
    assert table.diag_pq.shape == (n, 2 ** n)
    assert np.array_equal(np.diff(indptr), np.full(2 ** n, 1 + n * (n - 1) // 2))
    uses = np.bincount(cls)
    assert np.all(uses[:classes] > 0) and np.array_equal(uses[classes:], np.ones(2 ** n))


# SHA-256 of the dtype, shape and bytes of every array of `_jw_pattern(n)`,
# `_product_pattern(n)` and `_product_classes(n)`, in that order, recorded
# when the table was built by expanding every product of G.G and sorting
# the entries into classes
JW_TABLE_DIGESTS = {
    2: "1fd10b753f0bbb22346f4c87b608909f15b21a25d8e687819440b64689e1cc47",
    4: "a1f2104fbbabfa8a9531508c520f932f8f8379eeab12f08f4341a547666d469a",
    6: "934e3170cb9e455269cce629ddfbbf4910f8cec19086a922d40b132885871765",
    8: "9fcd9f88bd057feaf7f44ed245de184621e0ad70c8e3477b0339998c8ceafa5d",
    10: "93dbd6d2eb5c0235dd3b0cb8095566905359f32e43ea55ec5f85b507ae777321",
    12: "dceda303dfd588c8f1381e0dfecea1a8656c48802fa35631d998747d6db9b203",
}


def arrays_digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("n", sorted(JW_TABLE_DIGESTS))
def test_jordan_wigner_tables_match_recorded_digests(n):
    """The closed forms of the bit layout give G's pattern and the G.G class
    table array for array: integers and exact signs, so every toy operator
    built on them keeps its bits."""
    tables = [*fock._jw_pattern(n), *fock._product_pattern(n), *fock._product_classes(n)]
    assert arrays_digest(tables) == JW_TABLE_DIGESTS[n]


def test_product_table_reads_the_bit_layout_not_the_pattern():
    """Both cached parts of the G.G table read the bit layout, not G's
    pattern, and the classes build without the G.G pattern."""
    for cached in (fock._jw_terms, fock._jw_pattern, fock._product_classes, fock._product_pattern):
        cached.cache_clear()
    fock._product_classes(8)
    assert fock._product_pattern.cache_info().misses == 0
    fock._product_pattern(8)
    assert fock._jw_pattern.cache_info().misses == 0
    assert fock._jw_terms.cache_info().misses == 1


@pytest.mark.parametrize("n", [2, 6, 12])
def test_sector_labels_count_the_bits_of_each_block(n):
    """Particle modes are the leading n/2 bits of a basis index."""
    model = fock.random_model(n, np.random.default_rng(n))
    n_p, n_a = fock.sector_labels(model)
    low = n - model.d_plus
    expected_p = [bin(s >> low).count("1") for s in range(2 ** n)]
    expected_a = [bin(s & ((1 << low) - 1)).count("1") for s in range(2 ** n)]
    assert n_p.dtype == n_a.dtype == np.int64
    assert np.array_equal(n_p, expected_p) and np.array_equal(n_a, expected_a)


def test_class_sum_drops_zero_weight_rows_before_the_products(rng):
    x = rng.normal(size=(3, 12)) + 1j * rng.normal(size=(3, 12))
    y = rng.normal(size=(3, 12)) + 1j * rng.normal(size=(3, 12))
    x[1] = np.inf  # a product of this row would raise below
    with np.errstate(invalid="raise"):
        got = fock._class_sum(6, x, y, [0.5, 0.0, 1.0], [0.25, 2.0, 0.75])
    kept = fock._class_sum(6, x[[0, 2]], y[[0, 2]], [0.5, 1.0], [0.25, 0.75])
    assert got.tobytes() == kept.tobytes()


def test_vacuum_is_normalized_and_annihilated(model6, rng):
    omega = fock.vacuum(model6)
    assert np.linalg.norm(omega) == 1.0
    for _ in range(5):
        f = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert np.linalg.norm(fock.annihilator_b(model6, f) @ omega) == 0.0
        assert np.linalg.norm(fock.annihilator_c(model6, f) @ omega) == 0.0


def test_car_relations(model6, rng):
    I = sparse.identity(model6.fock_dim, format="csr")
    Pp, Pm = model6.p_plus, model6.p_minus
    for _ in range(20):
        f = rng.normal(size=6) + 1j * rng.normal(size=6)
        g = rng.normal(size=6) + 1j * rng.normal(size=6)
        b_f = fock.annihilator_b(model6, f)
        bs_f = fock.creator_b(model6, f)
        b_g = fock.annihilator_b(model6, g)
        c_f = fock.annihilator_c(model6, f)
        cs_f = fock.creator_c(model6, f)
        c_g = fock.annihilator_c(model6, g)
        cs_g = fock.creator_c(model6, g)
        assert max_abs(anti(b_f, b_g)) < 1e-12
        assert max_abs(anti(bs_f, b_g) - np.vdot(g, Pp @ f) * I) < 1e-12
        assert max_abs(anti(cs_f, c_g) - np.conj(np.vdot(g, Pm @ f)) * I) < 1e-12
        assert max_abs(anti(b_f, c_g)) < 1e-12
        assert max_abs(anti(b_f, cs_g)) < 1e-12
        assert max_abs(anti(bs_f, cs_g)) < 1e-12


def test_field_operator_car(model6, rng):
    I = sparse.identity(model6.fock_dim, format="csr")
    for _ in range(10):
        f = rng.normal(size=6) + 1j * rng.normal(size=6)
        g = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi_f = fock.field_op(model6, f)
        psi_g = fock.field_op(model6, g)
        psis_f = fock.field_adjoint(model6, f)
        assert max_abs(anti(psis_f, psi_g) - np.vdot(g, f) * I) < 1e-12
        assert max_abs(anti(psi_f, psi_g)) < 1e-12
        assert max_abs(psi_f @ psi_f) < 1e-12
        assert max_abs(psis_f - psi_f.conj().T.tocsr()) == 0.0


def test_antilinearity_of_b(model6, rng):
    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    g = rng.normal(size=6) + 1j * rng.normal(size=6)
    alpha = 0.7 - 1.9j
    lhs = fock.annihilator_b(model6, alpha * f + g)
    rhs = np.conj(alpha) * fock.annihilator_b(model6, f) + fock.annihilator_b(model6, g)
    assert max_abs(lhs - rhs) < 1e-12


def test_linearity_of_creator_b_and_antilinearity_of_creator_c(model6, rng):
    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    g = rng.normal(size=6) + 1j * rng.normal(size=6)
    alpha = -1.2 + 0.4j
    lhs = fock.creator_b(model6, alpha * f + g)
    rhs = alpha * fock.creator_b(model6, f) + fock.creator_b(model6, g)
    assert max_abs(lhs - rhs) < 1e-12
    lhs = fock.creator_c(model6, alpha * f + g)
    rhs = np.conj(alpha) * fock.creator_c(model6, f) + fock.creator_c(model6, g)
    assert max_abs(lhs - rhs) < 1e-12


def test_sector_grading(model6, rng):
    n_p, n_a = fock.sector_labels(model6)
    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    bs = fock.creator_b(model6, f).tocoo()
    # b* raises the particle count by one and leaves antiparticles alone
    assert np.all(n_p[bs.row] == n_p[bs.col] + 1)
    assert np.all(n_a[bs.row] == n_a[bs.col])
    cs = fock.creator_c(model6, f).tocoo()
    assert np.all(n_a[cs.row] == n_a[cs.col] + 1)
    assert np.all(n_p[cs.row] == n_p[cs.col])


def test_normal_ordered_density(model6, rng):
    omega = fock.vacuum(model6)
    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    f /= np.linalg.norm(f)
    T = fock.normal_ordered_density(model6, f)
    assert abs(np.vdot(omega, T @ omega)) < 1e-14
    assert max_abs(T - T.conj().T) < 1e-13
    mu_p = np.linalg.norm(model6.p_plus @ f) ** 2
    mu_m = np.linalg.norm(model6.p_minus @ f) ** 2
    eigs = np.unique(np.round(np.linalg.eigvalsh(T.toarray()), 9))
    assert np.allclose(np.sort(eigs), np.sort([-mu_m, mu_p]), atol=1e-8)
    # Psi*(f) Psi(f) is a projection for a unit vector
    P = fock.field_adjoint(model6, f) @ fock.field_op(model6, f)
    assert max_abs(P @ P - P) < 1e-12


def test_normal_ordered_density_requires_unit_norm(model6):
    with pytest.raises(ValueError, match="normalized"):
        fock.normal_ordered_density(model6, np.ones(6))


def test_densities_commute_over_onb(model6, rng):
    frame, _ = np.linalg.qr(rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))
    Ts = [fock.normal_ordered_density(model6, frame[:, j]) for j in range(3)]
    for i in range(3):
        for j in range(3):
            assert max_abs(Ts[i] @ Ts[j] - Ts[j] @ Ts[i]) < 1e-11


def test_model_validation_rejects_bad_projector(rng):
    model = fock.random_model(4, rng)
    with pytest.raises(ValueError, match="projector"):
        fock.ToyModel(n=4, p_plus=np.eye(4) * 0.5, conj=model.conj,
                      basis_plus=model.basis_plus, basis_antip=model.basis_antip)


@pytest.mark.parametrize("replace, message", [
    # the plain conjugation does not map ran(P-) onto ran(P+)
    (lambda model: {"conj": AntiUnitary(np.eye(6))}, "exchange"),
    (lambda model: {"basis_antip": model.basis_antip[:, :1]}, "mode count"),
], ids=["conjugation-not-exchanging", "mode-count"])
def test_model_validation_rejects_inconsistent_parts(replace, message, rng):
    model = fock.random_model(6, rng)
    parts = {"n": 6, "p_plus": model.p_plus, "conj": model.conj,
             "basis_plus": model.basis_plus, "basis_antip": model.basis_antip}
    parts.update(replace(model))
    with pytest.raises(ValueError, match=message):
        fock.ToyModel(**parts)


def test_model_requires_even_mode_count(rng):
    with pytest.raises(ValueError):
        fock.random_model(5, rng)


def test_dimension_mismatch_rejected(model6):
    with pytest.raises(ValueError):
        fock.creator_b(model6, np.ones(4))
