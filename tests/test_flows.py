import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mskit import flows
from mskit.energy import (
    constraint_integral,
    default_tangential_fields,
    velocity_pairing_field,
)
from mskit.fields import MeanZeroField, VectorField, hminus_norm_sq, make_grid
from mskit.flows import (
    _build_map,
    _interp_vector,
    _pullback,
    construct_xi,
    flow_deform,
    project_to_S_chi,
    velocity_convergence_check,
)

import shapes

# Analytic dual norm of the pairing field for the mid-plane stripe under
# B = (sin(pi x) cos(2 pi y), 0): expanding the interface line measure in
# the Neumann cosine basis gives
#   1/(8 pi^2) + (pi coth(pi) - 1)/(8 pi^2)  = 0.0399376...
STRIPE_PAIRING_NORM = 0.19984396


def grid2(n=64):
    return make_grid(2, (n, n), (1.0, 1.0))


def zero_field(grid):
    return VectorField(
        grid, tuple(np.zeros(grid.dims) for _ in range(grid.d)), tangential=True
    )


def negate(B):
    return VectorField(
        B.domain, tuple(-c for c in B.components), tangential=True
    )


def resample_floor(chi):
    """One supersample quantum per interface cell, in mass units."""
    grid = chi.domain
    iface = int(
        np.sum(np.abs(np.diff(chi.values, axis=0)) > 0)
        + np.sum(np.abs(np.diff(chi.values, axis=1)) > 0)
    )
    return iface * grid.cell_volume / 16.0


@pytest.fixture(scope="module")
def disk64():
    return shapes.binary_disk(grid2(), (0.5, 0.5), 0.3)


@pytest.fixture(scope="module")
def dictionary64(disk64):
    return default_tangential_fields(disk64.domain)


@pytest.fixture(scope="module")
def member64(disk64, dictionary64):
    xi = construct_xi(disk64, 4.0 / 64)
    return project_to_S_chi(dictionary64[1], disk64, xi)


def _reflect_reference(i, n, odd):
    """Per-component fold of the original interpolation, kept as the oracle."""
    k = np.mod(i, 2 * n)
    hi = k >= n
    idx = np.where(hi, 2 * n - 1 - k, k)
    if odd:
        return idx, np.where(hi, -1.0, 1.0)
    return idx, None


def _interp_component_reference(comp, grid, pts, odd_axis):
    """One component at a time, every corner refolding every axis."""
    d = grid.d
    base, frac = [], []
    for b in range(d):
        t = pts[b] / grid.spacing[b] - 0.5
        i = np.floor(t).astype(np.int64)
        base.append(i)
        frac.append(t - i)
    out = np.zeros(np.shape(pts[0]))
    for corner in range(2 ** d):
        w = 1.0
        sign = 1.0
        gather = []
        for b in range(d):
            bit = (corner >> b) & 1
            jb, sb = _reflect_reference(
                base[b] + bit, grid.dims[b], odd=(b == odd_axis)
            )
            gather.append(jb)
            w = w * (frac[b] if bit else 1.0 - frac[b])
            if sb is not None:
                sign = sign * sb
        out += w * sign * comp[tuple(gather)]
    return out


@st.composite
def interpolation_cases(draw):
    d = draw(st.sampled_from((2, 3)))
    dims = tuple(draw(st.integers(8, 13)) for _ in range(d))
    lengths = tuple(draw(st.sampled_from((0.5, 1.0, 1.7))) for _ in range(d))
    # how far, in box lengths, points may lie beyond the faces: 0.5 stays
    # within one reflection, 4.0 needs several folds
    reach = draw(st.sampled_from((0.0, 0.5, 4.0)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return d, dims, lengths, reach, seed


class TestInterpolation:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(interpolation_cases())
    def test_bit_identical_to_per_component_reference(self, case):
        d, dims, lengths, reach, seed = case
        grid = make_grid(d, dims, lengths)
        rng = np.random.default_rng(seed)
        comps = [rng.standard_normal(dims) for _ in range(d)]
        pts = []
        for L in lengths:
            x = rng.uniform(-reach * L, (1.0 + reach) * L, 48)
            x[:4] = (0.0, L, 0.0, L)  # on the faces
            pts.append(rng.permutation(x).reshape(6, 8))
        out = _interp_vector(comps, grid, pts)
        for a in range(d):
            ref = _interp_component_reference(comps[a], grid, pts, a)
            assert out[a].shape == ref.shape
            assert np.array_equal(out[a], ref)

    def test_empty_points(self):
        g = make_grid(2, (8, 8), (1.0, 1.0))
        comps = [np.ones(g.dims), np.ones(g.dims)]
        out = _interp_vector(comps, g, [np.zeros(0), np.zeros(0)])
        assert [o.shape for o in out] == [(0,), (0,)]


class TestSolverFailures:
    def test_inverse_iteration_cap_raises(self, disk64, member64, monkeypatch):
        monkeypatch.setattr(flows, "_INVERSE_MAX_ITERS", 2)
        with pytest.raises(
            ValueError, match=r"did not converge in 2 iterations: delta .* vs tol"
        ):
            _build_map(member64, disk64.domain, 0.04)

    def test_mass_bisection_cap_raises(self, disk64, member64, monkeypatch):
        monkeypatch.setattr(flows, "_MASS_BISECT_STEPS", 1)
        with pytest.raises(
            ValueError, match=r"in 1 bisection steps: drift .* vs mass_tol"
        ):
            flow_deform(disk64, member64, 0.04)


class TestProjection:
    def test_satisfying_field_nearly_unchanged(self, disk64, dictionary64):
        # the tapered rotation has machine-zero pairing already
        rot = dictionary64[7]
        xi = construct_xi(disk64, 4.0 / 64)
        out = project_to_S_chi(rot, disk64, xi)
        for a, b in zip(out.components, rot.components):
            assert np.max(np.abs(a - b)) <= 1e-12 * (1.0 + rot.max_norm())

    def test_dilation_pairing_removed(self, disk64, dictionary64):
        xi = construct_xi(disk64, 4.0 / 64)
        out = project_to_S_chi(dictionary64[6], disk64, xi)
        assert abs(constraint_integral(disk64, out)) <= 1e-10

    def test_whole_dictionary_projects(self, disk64, dictionary64):
        xi = construct_xi(disk64, 4.0 / 64)
        for B in dictionary64:
            out = project_to_S_chi(B, disk64, xi)
            assert abs(constraint_integral(disk64, out)) <= 1e-10
            assert out.tangential

    def test_degenerate_normalizer(self, disk64, dictionary64):
        rot = dictionary64[7]
        with pytest.raises(ValueError, match="degenerate"):
            project_to_S_chi(dictionary64[0], disk64, rot)

    def test_rejects_non_tangential(self, disk64):
        g = disk64.domain
        raw = VectorField(
            g, (np.ones(g.dims), np.zeros(g.dims)), tangential=False
        )
        xi = construct_xi(disk64, 4.0 / 64)
        with pytest.raises(ValueError, match="tangential"):
            project_to_S_chi(raw, disk64, xi)


class TestFlowMapGeometry:
    def test_zero_parameter_is_identity(self, disk64, member64):
        fmap, out = flow_deform(disk64, member64, 0.0)
        assert np.array_equal(out.values, disk64.values)
        assert out.binary
        for c in fmap.displacement.components:
            assert np.max(np.abs(c)) == 0.0

    def test_forward_inverse_roundtrip(self, disk64, member64):
        g = disk64.domain
        fmap = _build_map(member64, g, 0.05)
        xs = np.linspace(0.05, 0.95, 7)
        pts = [m.ravel() for m in np.meshgrid(xs, xs, indexing="ij")]
        back = fmap.inverse_points(fmap.forward_points(pts))
        diam = float(np.sqrt(sum(L * L for L in g.lengths)))
        err = max(np.max(np.abs(b - p)) for b, p in zip(back, pts))
        assert err <= 1e-6 * diam

    def test_walls_map_to_themselves(self, disk64, member64):
        fmap = _build_map(member64, disk64.domain, 0.05)
        ys = np.linspace(0.0, 1.0, 33)
        for x0 in (0.0, 1.0):
            fx, _ = fmap.forward_points([np.full_like(ys, x0), ys])
            assert np.max(np.abs(fx - x0)) == 0.0
        for y0 in (0.0, 1.0):
            _, fy = fmap.forward_points([ys, np.full_like(ys, y0)])
            assert np.max(np.abs(fy - y0)) == 0.0

    def test_reverse_flow_composition(self, disk64, member64):
        """The backward flow map undoes the forward one before resampling."""
        s = 0.02
        fwd = _build_map(member64, disk64.domain, s)
        bwd = _build_map(negate(member64), disk64.domain, s)
        vals = _pullback(disk64, [bwd, fwd])
        err = float(np.abs(vals - disk64.values).sum()) * disk64.domain.cell_volume
        assert err <= 2.0 * resample_floor(disk64)


class TestFlowDeform:
    def test_rejects_volume_changing_field(self, disk64, dictionary64):
        with pytest.raises(ValueError, match="volume preserving"):
            flow_deform(disk64, dictionary64[1], 0.02)

    def test_rejects_non_tangential_field(self, disk64):
        g = disk64.domain
        raw = VectorField(
            g, (np.ones(g.dims), np.zeros(g.dims)), tangential=False
        )
        with pytest.raises(ValueError, match="tangential"):
            flow_deform(disk64, raw, 0.02)

    def test_rotation_fixes_disk_exactly_at_small_s(self, disk64, dictionary64):
        _, out = flow_deform(disk64, dictionary64[7], 0.005)
        assert np.array_equal(out.values, disk64.values)

    def test_rotation_within_resampling_tolerance(self, disk64, dictionary64):
        rot = dictionary64[7]
        s = 0.02
        vals = _pullback(disk64, [_build_map(rot, disk64.domain, s)])
        err = (
            float(np.abs(vals - disk64.values).sum())
            * disk64.domain.cell_volume
        )
        # a finite rotation sweeps s*|B|/subcell supersample layers through
        # each interface cell, so the quantization floor scales with s
        sub = min(disk64.domain.spacing) / 4.0
        layers = 1.0 + s * rot.max_norm() / sub
        assert err <= layers * resample_floor(disk64)

    def test_mass_correction(self, disk64, member64):
        # one supersample quantum is the honest floor at this resolution
        quantum = disk64.domain.cell_volume / 16.0
        for s in (0.01, -0.01, 0.02, -0.02):
            _, out = flow_deform(disk64, member64, s)
            drift = abs(
                float(out.values.mean()) * disk64.domain.volume - disk64.m0
            )
            assert drift <= 2.0 * quantum

    def test_uncorrected_drift_quadratic(self, disk64, member64):
        quantum = disk64.domain.cell_volume / 16.0
        for s in (0.08, 0.04, 0.02):
            vals = _pullback(disk64, [_build_map(member64, disk64.domain, s)])
            drift = abs(float(vals.mean()) * disk64.domain.volume - disk64.m0)
            assert drift <= 2.0 * s * s + 2.0 * quantum

    def test_values_are_cell_fractions(self, disk64, member64):
        _, out = flow_deform(disk64, member64, 0.04)
        assert np.all(out.values >= 0.0)
        assert np.all(out.values <= 1.0)


class TestVelocityConvergence:
    def test_zero_field_zero_residual(self, disk64):
        rep = velocity_convergence_check(disk64, zero_field(disk64.domain))
        assert rep.r_values == (0.0, 0.0, 0.0, 0.0)
        assert rep.monotone

    def test_stripe_direction_monotone(self):
        g = grid2()
        chi = shapes.stripe(g)
        X, Y = g.meshes()
        B = VectorField(
            g,
            (np.sin(np.pi * X) * np.cos(2 * np.pi * Y), np.zeros(g.dims)),
            tangential=True,
        )
        assert abs(constraint_integral(chi, B)) <= 1e-12
        rep = velocity_convergence_check(chi, B)
        assert rep.monotone
        rs = rep.r_values
        assert all(b <= a + 1e-12 for a, b in zip(rs, rs[1:]))

    def test_stripe_pairing_norm_oracle(self):
        g = grid2()
        chi = shapes.stripe(g)
        X, Y = g.meshes()
        B = VectorField(
            g,
            (np.sin(np.pi * X) * np.cos(2 * np.pi * Y), np.zeros(g.dims)),
            tangential=True,
        )
        v = velocity_pairing_field(chi, B)
        v = v - v.mean()
        nrm = float(np.sqrt(hminus_norm_sq(MeanZeroField(g, v))))
        assert nrm == pytest.approx(STRIPE_PAIRING_NORM, rel=0.05)

