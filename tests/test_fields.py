import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mskit import fields
from mskit.fields import (
    MeanZeroField,
    ScalarField,
    VectorField,
    div_mirror,
    grad_centered,
    grad_forward,
    grad_forward_adjoint,
    h1_inner,
    hminus_inner,
    jacobian,
    make_grid,
    mollify,
    neumann_solve,
    poisson_apply_raw,
    project_mean_zero,
    tv_forward,
    vector_from_callables,
)

import oracles

hyp = settings(max_examples=20, deadline=None, derandomize=True)


def grid2(n=16, lengths=(1.0, 1.0)):
    return make_grid(2, (n, n), lengths)


def grid3(n=8, lengths=(1.0, 1.0, 2.0)):
    return make_grid(3, (n, n, n), lengths)


# ---------------------------------------------------------------------------
# grids and field containers
# ---------------------------------------------------------------------------

class TestGrid:
    def test_unit_square(self):
        g = make_grid(2, [64, 64], [1, 1])
        assert g.spacing == (1.0 / 64, 1.0 / 64)
        assert g.cell_volume == pytest.approx(1.0 / 64**2)

    def test_box_3d(self):
        g = make_grid(3, [32, 32, 32], [1, 1, 2])
        assert g.spacing[2] == pytest.approx(1.0 / 16)
        assert g.volume == pytest.approx(2.0)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="unsupported dimension"):
            make_grid(4, [8, 8, 8, 8], [1, 1, 1, 1])

    def test_too_few_cells_names_axis(self):
        with pytest.raises(ValueError, match="axis 1"):
            make_grid(2, [16, 4], [1, 1])

    def test_bad_extent_names_axis(self):
        with pytest.raises(ValueError, match="axis 0"):
            make_grid(2, [16, 16], [-1, 1])

    def test_centers_and_faces(self):
        g = grid2(8)
        c = g.cell_centers(0)
        assert c[0] == pytest.approx(1.0 / 16)
        assert c[-1] == pytest.approx(1 - 1.0 / 16)
        assert g.face_area(0) == pytest.approx(1.0 / 8)


class TestScalarField:
    def test_shape_mismatch(self):
        g = grid2()
        with pytest.raises(ValueError, match="shape"):
            ScalarField(g, np.zeros((4, 4)))

    def test_rejects_nan(self):
        g = grid2()
        v = np.zeros(g.shape)
        v[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ScalarField(g, v)

    def test_integral(self):
        g = grid2()
        f = ScalarField(g, np.ones(g.shape))
        assert f.integral() == pytest.approx(1.0)


class TestMeanZero:
    def test_rejects_offset(self):
        g = grid2()
        with pytest.raises(ValueError, match="mean"):
            MeanZeroField(g, np.ones(g.shape))

    def test_project_constant(self):
        g = grid2()
        out = project_mean_zero(ScalarField(g, np.full(g.shape, 3.7)))
        assert np.max(np.abs(out.values)) <= 1e-14

    def test_project_idempotent(self):
        g = grid2()
        rng = np.random.default_rng(0)
        f = ScalarField(g, rng.standard_normal(g.shape))
        once = project_mean_zero(f)
        twice = project_mean_zero(once)
        np.testing.assert_allclose(twice.values, once.values, rtol=0, atol=1e-14)

    def test_cosine_unchanged(self):
        g = grid2(32)
        X, _ = g.meshes()
        f = ScalarField(g, np.cos(np.pi * X))
        out = project_mean_zero(f)
        np.testing.assert_allclose(out.values, f.values, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# spectral solver
# ---------------------------------------------------------------------------

class TestNeumannSolve:
    def test_zero_source(self):
        g = grid2()
        u = neumann_solve(MeanZeroField(g, np.zeros(g.shape)))
        assert np.max(np.abs(u.values)) == 0.0

    @pytest.mark.parametrize("axis", [0, 1])
    def test_eigenfunction_2d(self, axis):
        g = make_grid(2, (32, 24), (1.0, 1.5))
        meshes = g.meshes()
        L = g.lengths[axis]
        f = np.cos(np.pi * meshes[axis] / L)
        u = neumann_solve(MeanZeroField(g, f))
        expect = -((L / np.pi) ** 2) * f
        assert np.max(np.abs(u.values - expect)) <= 1e-12

    def test_eigenfunction_3d(self):
        g = grid3()
        X, Y, Z = g.meshes()
        Lz = g.lengths[2]
        f = np.cos(np.pi * Z / Lz)
        u = neumann_solve(MeanZeroField(g, f))
        expect = -((Lz / np.pi) ** 2) * f
        assert np.max(np.abs(u.values - expect)) <= 1e-12

    def test_matches_dense_2d(self):
        g = make_grid(2, (16, 16), (1.0, 1.3))
        f = oracles.random_mean_zero(g, 1)
        u = neumann_solve(MeanZeroField(g, f))
        ref = oracles.dense_neumann_solve(g, f)
        rel = np.max(np.abs(u.values - ref)) / np.max(np.abs(ref))
        assert rel <= 1e-10

    def test_matches_dense_3d(self):
        g = grid3()
        f = oracles.random_mean_zero(g, 2)
        u = neumann_solve(MeanZeroField(g, f))
        ref = oracles.dense_neumann_solve(g, f)
        rel = np.max(np.abs(u.values - ref)) / np.max(np.abs(ref))
        assert rel <= 1e-10

    def test_roundtrip_through_dense_operator(self):
        # applying the dense matrix to the fast solution must recover the
        # source, which checks solve-then-apply rather than apply-then-solve
        g = grid2(16)
        f = oracles.random_mean_zero(g, 3)
        u = neumann_solve(MeanZeroField(g, f))
        M = oracles.dense_neumann_matrix(g)
        back = (M @ u.values.ravel()).reshape(g.shape)
        assert np.max(np.abs(back - f)) <= 1e-10 * np.max(np.abs(f))

    def test_incompatible_source(self):
        g = grid2()
        bad = ScalarField(g, np.ones(g.shape))
        with pytest.raises(ValueError, match="incompatible source"):
            neumann_solve(bad)

    @given(st.integers(0, 10**6))
    @hyp
    def test_linearity(self, seed):
        g = grid2(8)
        f1 = oracles.random_mean_zero(g, seed)
        f2 = oracles.random_mean_zero(g, seed + 1)
        u12 = neumann_solve(MeanZeroField(g, f1 + 2.0 * f2))
        u1 = neumann_solve(MeanZeroField(g, f1))
        u2 = neumann_solve(MeanZeroField(g, f2))
        np.testing.assert_allclose(
            u12.values, u1.values + 2.0 * u2.values, rtol=0, atol=1e-12
        )


class TestInnerProducts:
    def test_h1_cosine_value(self):
        g = grid2(64)
        X, _ = g.meshes()
        u = MeanZeroField(g, np.cos(np.pi * X))
        assert h1_inner(u, u) == pytest.approx(np.pi**2 / 2, abs=1e-12)

    def test_h1_orthogonality(self):
        g = grid2(32)
        X, Y = g.meshes()
        u = MeanZeroField(g, np.cos(np.pi * X))
        v = MeanZeroField(g, np.cos(np.pi * Y))
        assert abs(h1_inner(u, v)) <= 1e-13

    def test_h1_zero(self):
        g = grid2()
        u = MeanZeroField(g, np.zeros(g.shape))
        v = neumann_solve(MeanZeroField(g, oracles.random_mean_zero(g, 4)))
        assert h1_inner(v, u) == 0.0

    def test_h1_domain_mismatch(self):
        u = MeanZeroField(grid2(16), np.zeros((16, 16)))
        v = MeanZeroField(grid2(32), np.zeros((32, 32)))
        with pytest.raises(ValueError, match="domain mismatch"):
            h1_inner(u, v)

    def test_hminus_cosine_value(self):
        g = grid2(128)
        X, _ = g.meshes()
        F = MeanZeroField(g, np.cos(np.pi * X))
        assert hminus_inner(F, F) == pytest.approx(1.0 / (2 * np.pi**2), abs=1e-12)

    def test_hminus_orthogonality_and_scaling(self):
        g = grid2(32)
        X, Y = g.meshes()
        F = MeanZeroField(g, np.cos(np.pi * X))
        G = MeanZeroField(g, np.cos(np.pi * Y))
        assert abs(hminus_inner(F, G)) <= 1e-13
        F2 = MeanZeroField(g, 2.0 * F.values)
        assert hminus_inner(F2, F2) == pytest.approx(4.0 * hminus_inner(F, F))

    @given(st.integers(0, 10**6))
    @hyp
    def test_hminus_positive_definite(self, seed):
        g = grid2(8)
        f = oracles.random_mean_zero(g, seed)
        if np.max(np.abs(f)) == 0.0:
            return
        assert hminus_inner(MeanZeroField(g, f), MeanZeroField(g, f)) > 0.0

    @given(st.integers(0, 10**6))
    @hyp
    def test_duality_two_routes(self, seed):
        # the direct dual-metric formula must agree with pushing both
        # sources through the solver and taking the Dirichlet product
        g = grid2(16)
        F = MeanZeroField(g, oracles.random_mean_zero(g, seed))
        G = MeanZeroField(g, oracles.random_mean_zero(g, seed + 7))
        direct = hminus_inner(F, G)
        via_solve = h1_inner(neumann_solve(F), neumann_solve(G))
        assert direct == pytest.approx(via_solve, rel=1e-12, abs=1e-15)

    @given(st.integers(0, 10**6))
    @hyp
    def test_integration_by_parts(self, seed):
        # Dirichlet product of the potential against any mean-zero v equals
        # minus the cell quadrature of F v
        g = grid2(16)
        F = MeanZeroField(g, oracles.random_mean_zero(g, seed))
        v = MeanZeroField(g, oracles.random_mean_zero(g, seed + 13))
        lhs = h1_inner(neumann_solve(F), v)
        rhs = -float(np.sum(F.values * v.values)) * g.cell_volume
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-14)


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------

def random_pair(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.shape), [
        rng.standard_normal(grid.shape) for _ in range(grid.d)
    ]


class TestDifferenceOperators:
    @pytest.mark.parametrize("g", [grid2(12, (1.0, 1.7)), grid3(8)])
    def test_forward_adjoint_exact(self, g):
        u, ps = random_pair(g, 5)
        gs = grad_forward(u, g)
        lhs = sum(float(np.sum(ga * pa)) for ga, pa in zip(gs, ps))
        rhs = float(np.sum(u * grad_forward_adjoint(ps, g)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("g", [grid2(12, (1.0, 1.7)), grid3(8)])
    def test_centered_adjoint_exact(self, g):
        rng = np.random.default_rng(6)
        u = rng.standard_normal(g.shape)
        p = rng.standard_normal(g.shape)
        for a, du in enumerate(grad_centered(u, g)):
            lhs = float(np.sum(du * p))
            rhs = float(np.sum(u * oracles.d_centered_adjoint(p, a, g)))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_div_adjoint_summation_by_parts(self):
        g = grid2(16)
        u, ps = random_pair(g, 7)
        lhs = float(np.sum(u * oracles.div_adjoint(ps, g)))
        rhs = -sum(float(np.sum(ga * pa)) for ga, pa in zip(grad_centered(u, g), ps))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_tv_of_stripe(self):
        g = grid2(32)
        X, _ = g.meshes()
        chi = (X < 0.5).astype(float)
        assert tv_forward(chi, g) == pytest.approx(1.0, abs=1e-12)

    def test_centered_linear_exact_interior(self):
        g = grid2(16)
        X, _ = g.meshes()
        d = grad_centered(3.0 * X, g)[0]
        assert np.max(np.abs(d[1:-1, :] - 3.0)) <= 1e-12

    def test_div_mirror_constant(self):
        g = grid2(16)
        comps = [np.ones(g.shape), np.full(g.shape, 2.0)]
        assert np.max(np.abs(div_mirror(comps, g))) == 0.0

    def test_odd_ghost_sees_wall_zero(self):
        # a component that vanishes linearly at its wall keeps its wall-cell
        # derivative exact under the odd reflection
        g = grid2(16)
        X, _ = g.meshes()
        B = VectorField(g, [X, np.zeros(g.shape)], tangential=True)
        d = jacobian(B, g)[0][0]
        assert d[0, 0] == pytest.approx(1.0)


@st.composite
def kernel_grids(draw):
    """2-D and 3-D grids of 8-13 cells per axis, square and cube included."""
    d = draw(st.sampled_from((2, 3)))
    if draw(st.booleans()):
        dims = (draw(st.integers(8, 13)),) * d
    else:
        dims = tuple(draw(st.integers(8, 13)) for _ in range(d))
    lengths = tuple(
        draw(st.floats(0.25, 4.0, allow_nan=False, allow_infinity=False))
        for _ in range(d)
    )
    return make_grid(d, dims, lengths), draw(st.integers(0, 2 ** 16))


class TestKernelsMatchReference:
    """The fields kernels against their plain reference forms."""

    @given(kernel_grids())
    @hyp
    def test_poisson_apply_raw(self, case):
        # per-axis matrix products against scipy's transforms: equal to
        # rounding, not bit for bit (4e-15 relative measured up to 256^2)
        g, seed = case
        v = np.random.default_rng(seed).standard_normal(g.shape)
        ref = oracles.poisson_apply_ref(v, g)
        err = np.max(np.abs(poisson_apply_raw(v, g) - ref))
        assert err <= 1e-13 * np.max(np.abs(ref))

    @given(kernel_grids())
    @hyp
    def test_cosine_transform_orthonormal(self, case):
        g, seed = case
        for mat, _blocks in fields._cosine_plan(g):
            err = np.max(np.abs(mat @ mat.T - np.eye(mat.shape[0])))
            assert err <= 1e-13
        v = np.random.default_rng(seed).standard_normal(g.shape)
        back = fields._cosine(fields._cosine(v, g), g, inverse=True)
        assert back.shape == g.shape
        assert np.max(np.abs(back - v)) <= 1e-13 * np.max(np.abs(v))

    @given(kernel_grids())
    @hyp
    def test_grad_forward(self, case):
        g, seed = case
        v = np.random.default_rng(seed).standard_normal(g.shape)
        for got, ref in zip(grad_forward(v, g), oracles.grad_forward_ref(v, g)):
            assert np.array_equal(got, ref)

    @given(kernel_grids())
    @example((make_grid(2, (8, 8), (1.0, 1.0)), 7))
    @example((make_grid(3, (8, 8, 8), (1.0, 1.0, 1.0)), 7))
    @hyp
    def test_grad_forward_adjoint(self, case):
        g, seed = case
        rng = np.random.default_rng(seed)
        ps = [rng.standard_normal(g.shape) for _ in range(g.d)]
        assert np.array_equal(
            grad_forward_adjoint(ps, g), oracles.grad_forward_adjoint_ref(ps, g)
        )

    @given(kernel_grids(), st.booleans())
    @example((make_grid(2, (8, 8), (1.0, 1.0)), 7), True)
    @hyp
    def test_centered_stencils(self, case, tangential):
        # one whole-component ghost pad per field against the per-axis pad
        g, seed = case
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(g.shape)
        comps = [rng.standard_normal(g.shape) for _ in range(g.d)]
        for a, got in enumerate(grad_centered(u, g)):
            assert np.array_equal(got, oracles.d_centered(u, a, g))
        div = np.zeros(g.shape)
        for a in range(g.d):
            div += oracles.d_centered(comps[a], a, g, odd=tangential)
        assert np.array_equal(div_mirror(comps, g, tangential=tangential), div)
        J = jacobian(VectorField(g, comps, tangential=tangential), g)
        for b in range(g.d):
            for a in range(g.d):
                ref = oracles.d_centered(comps[b], a, g, odd=tangential and a == b)
                assert np.array_equal(J[b][a], ref)


class TestVectorField:
    def test_component_count(self):
        g = grid2()
        with pytest.raises(ValueError, match="components"):
            VectorField(g, [np.zeros(g.shape)])

    def test_probe_detects_tangential(self):
        g = grid2(16)
        v = vector_from_callables(
            g,
            [lambda x, y: np.sin(np.pi * x), lambda x, y: np.sin(np.pi * y)],
        )
        assert v.tangential

    def test_probe_rejects_normal_flux(self):
        g = grid2(16)
        v = vector_from_callables(g, [lambda x, y: 1.0, lambda x, y: 0.0])
        assert not v.tangential


class TestMollify:
    def test_preserves_sum(self):
        g = grid2(32)
        rng = np.random.default_rng(8)
        v = rng.standard_normal(g.shape)
        out = mollify(v, g, 3.0 * g.spacing[0])
        assert float(out.sum()) == pytest.approx(float(v.sum()), abs=1e-10)

    def test_self_adjoint(self):
        g = grid2(24)
        rng = np.random.default_rng(9)
        a = rng.standard_normal(g.shape)
        b = rng.standard_normal(g.shape)
        eps = 2.5 * g.spacing[0]
        lhs = float(np.sum(mollify(a, g, eps) * b))
        rhs = float(np.sum(a * mollify(b, g, eps)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_constant_fixed(self):
        g = grid2(16)
        out = mollify(np.full(g.shape, 0.6), g, 2.0 * g.spacing[0])
        np.testing.assert_allclose(out, 0.6, rtol=0, atol=1e-13)

    def test_under_resolved_rejected(self):
        g = grid2(16)
        with pytest.raises(ValueError, match="under-resolved"):
            mollify(np.zeros(g.shape), g, 0.5 * g.spacing[0])
