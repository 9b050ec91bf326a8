import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mskit.energy import (
    EnergyParams,
    PhaseField,
    VarifoldSlice,
    _wall_flux_fields,
    boundary_trace_integral,
    compatibility_check,
    constraint_integral,
    default_tangential_fields,
    energy,
    first_variation,
    interface_measure,
    velocity_pairing_field,
)
from mskit.fields import ScalarField, make_grid, vector_from_callables

import shapes
from oracles import pair_velocity, tangential_fields_2d_ref

hyp = settings(max_examples=15, deadline=None, derandomize=True)

P90 = EnergyParams(1.0, np.pi / 2)


def grid2(n=64):
    return make_grid((n, n), (1.0, 1.0))


def wall_trace(chi):
    """Face-measure-weighted sum of a 2-D phase's wall cells, face by face."""
    v, g = chi.values, chi.domain
    return (float(v[0, :].sum() + v[-1, :].sum()) * g.face_area(0)
            + float(v[:, 0].sum() + v[:, -1].sum()) * g.face_area(1))


class TestYoung:
    """The contact angle alpha of Young's relation lies in (0, pi/2]."""

    def test_params_angle_range(self):
        with pytest.raises(ValueError, match="contact angle"):
            EnergyParams(1.0, 2.0)

    @pytest.mark.parametrize("c0", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_params_c0_positive_finite(self, c0):
        with pytest.raises(ValueError, match="c0 must be positive and finite"):
            EnergyParams(c0, 1.0)


class TestPhaseField:
    def test_range_enforced(self):
        g = grid2(16)
        with pytest.raises(ValueError, match="phase values"):
            PhaseField(g, np.full(g.shape, 1.5))

    def test_mass_target_mismatch(self):
        g = grid2(16)
        with pytest.raises(ValueError, match="mass"):
            PhaseField(g, np.ones(g.shape), m0=0.25)


class TestEnergy:
    def test_stripe_neutral_angle(self):
        g = grid2(32)
        E = energy(shapes.stripe(g), P90)
        assert E.bulk == pytest.approx(1.0, abs=1e-12)
        assert E.boundary == pytest.approx(0.0, abs=1e-12)
        assert E.total == pytest.approx(1.0, abs=1e-12)

    def test_stripe_sixty_degrees(self):
        # wetted walls: the whole x=0 face plus half of each y face
        g = grid2(32)
        p = EnergyParams(1.0, np.pi / 3)
        E = energy(shapes.stripe(g), p)
        assert E.boundary == pytest.approx(1.0, abs=1e-6)
        assert E.total == pytest.approx(2.0, abs=1e-6)

    def test_disk_perimeter_with_anisotropy_premium(self):
        # the forward-difference perimeter of a disk stabilizes about 7.5%
        # above 2 pi R under refinement; the premium is pinned here and the
        # mollified slice mass carries the accurate measurement
        target = 2 * np.pi * 0.25
        vals = {}
        for n in (128, 256):
            g = grid2(n)
            E = energy(shapes.relaxed_disk(g, (0.5, 0.5), 0.25), P90)
            vals[n] = E.bulk
            assert 1.05 <= E.bulk / target <= 1.10
        assert abs(vals[256] - vals[128]) / target <= 0.01

    def test_energy_of_complement_bulk(self):
        g = grid2(48)
        chi = shapes.binary_disk(g, (0.45, 0.55), 0.2)
        p = EnergyParams(1.0, np.pi / 3)
        E = energy(chi, p)
        Ec = energy(PhaseField(g, 1.0 - chi.values), p)
        assert Ec.bulk == pytest.approx(E.bulk, rel=1e-12)
        wall_total = boundary_trace_integral(np.ones(g.shape), g)
        expect = p.cos_alpha * p.c0 * (wall_total - boundary_trace_integral(chi.values, g))
        assert Ec.boundary == pytest.approx(expect, rel=1e-12)

    @given(st.integers(0, 10**6), st.floats(0.0, 1.0))
    @hyp
    def test_relaxed_convexity(self, seed, theta):
        g = grid2(16)
        rng = np.random.default_rng(seed)
        u = PhaseField(g, rng.uniform(0, 1, g.shape))
        v = PhaseField(g, rng.uniform(0, 1, g.shape))
        mix = PhaseField(g, theta * u.values + (1 - theta) * v.values)
        p = EnergyParams(1.0, np.pi / 3)
        lhs = energy(mix, p).total
        rhs = theta * energy(u, p).total + (1 - theta) * energy(v, p).total
        assert lhs <= rhs + 1e-10


class TestInterfaceMeasure:
    def test_empty_phase(self):
        g = grid2(32)
        chi = PhaseField(g, np.zeros(g.shape))
        s = interface_measure(chi, 2 * g.spacing[0])
        assert s.density.integral() == 0.0
        assert wall_trace(chi) == 0.0

    def test_stripe_mass_exact(self):
        # columnwise monotone profile: the centered gradient telescopes to
        # the exact unit rise, so the slice mass is 1 to machine precision
        g = grid2(64)
        s = interface_measure(shapes.stripe(g), 2 * g.spacing[0])
        assert s.density.integral() == pytest.approx(1.0, abs=1e-12)

    def test_under_resolved(self):
        g = grid2(32)
        with pytest.raises(ValueError, match="under-resolved"):
            interface_measure(shapes.stripe(g), 0.25 * g.spacing[0])

    def test_disk_normals_point_inward_radially(self):
        g = grid2(128)
        chi = shapes.binary_disk(g, (0.5, 0.5), 0.25)
        s = interface_measure(chi, 4 * g.spacing[0])
        X, Y = g.meshes()
        r = np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2)
        nx, ny = s.normal.components
        dot = -(nx * (X - 0.5) + ny * (Y - 0.5)) / np.maximum(r, 1e-12)
        dens = s.density.values
        mask = dens > 0.1 * dens.max()
        weighted = float((dot[mask] * dens[mask]).sum() / dens[mask].sum())
        assert 1.0 - weighted <= 1e-2
        assert np.quantile(dot[mask], 0.05) >= 0.99

    def test_unit_normals(self):
        g = grid2(64)
        s = interface_measure(shapes.binary_disk(g, (0.5, 0.5), 0.25),
                              2 * g.spacing[0])
        mag = np.sqrt(sum(c * c for c in s.normal.components))
        nz = mag > 0
        assert np.max(np.abs(mag[nz] - 1.0)) <= 1e-6

    def test_slice_energy_matches_energy_for_stripe(self):
        g = grid2(64)
        chi = shapes.stripe(g)
        p = EnergyParams(1.0, np.pi / 3)
        s = interface_measure(chi, 2 * g.spacing[0])
        E = energy(chi, p)
        assert p.c0 * s.density.integral() == pytest.approx(E.bulk, rel=1e-10)
        assert p.cos_alpha * p.c0 * wall_trace(chi) == pytest.approx(
            E.boundary, rel=1e-10)


class TestFirstVariation:
    def test_zero_field(self):
        g = grid2(64)
        chi = shapes.binary_disk(g, (0.5, 0.5), 0.25)
        s = interface_measure(chi, 2 * g.spacing[0])
        z = vector_from_callables(g, [lambda x, y: np.zeros_like(x)] * 2)
        assert first_variation(chi, s, z, P90) == 0.0

    def test_requires_tangential(self):
        g = grid2(32)
        chi = shapes.stripe(g)
        s = interface_measure(chi, 2 * g.spacing[0])
        e1 = vector_from_callables(
            g, [lambda x, y: np.ones_like(x), lambda x, y: np.zeros_like(x)])
        with pytest.raises(ValueError, match="tangential"):
            first_variation(chi, s, e1, P90)

    def test_wall_part_reads_the_phase_trace(self):
        # the stripe wets x < 1/2 of the walls y = 0 and y = 1; B = (sin pi x, 0)
        # moves no interface (the bulk part vanishes), and on each wall the
        # centred in-face divergence telescopes over the wetted cells to
        # the mean of B's two cells at the cut, cos(pi / 128)
        g = grid2(64)
        chi = shapes.stripe(g)
        s = interface_measure(chi, 2 * g.spacing[0])
        B = vector_from_callables(
            g, [lambda x, y: np.sin(np.pi * x), lambda x, y: np.zeros_like(x)])
        p = EnergyParams(1.0, np.pi / 3)
        expect = 2 * p.cos_alpha * p.c0 * np.cos(np.pi / 128)
        assert first_variation(chi, s, B, p) == pytest.approx(expect, rel=1e-12)

    def test_dilation_trace_identity(self):
        # grad B is the identity matrix on the interface band, where the
        # tangential trace of Id is d-1, so the first variation equals the
        # slice bulk mass exactly
        g = grid2(128)
        chi = shapes.binary_disk(g, (0.5, 0.5), 0.25)
        s = interface_measure(chi, 2 * g.spacing[0])
        B = default_tangential_fields(g)[6]  # the dilation about (0.5, 0.5)
        dmu = first_variation(chi, s, B, P90)
        assert dmu == pytest.approx(s.density.integral(), rel=1e-10)

    def test_rotation_exactly_neutral(self):
        g = grid2(128)
        chi = shapes.binary_disk(g, (0.5, 0.5), 0.25)
        s = interface_measure(chi, 2 * g.spacing[0])
        rot = default_tangential_fields(g)[-1]
        assert abs(first_variation(chi, s, rot, P90)) <= 1e-10

    def test_linearity(self):
        g = grid2(64)
        chi = shapes.binary_disk(g, (0.5, 0.5), 0.25)
        s = interface_measure(chi, 2 * g.spacing[0])
        fs = default_tangential_fields(g)[:3]
        from mskit.fields import VectorField
        combo = VectorField(
            g,
            [2.0 * fs[0].components[a] - 0.5 * fs[1].components[a]
             for a in range(2)],
            tangential=True,
        )
        lhs = first_variation(chi, s, combo, P90)
        rhs = (2.0 * first_variation(chi, s, fs[0], P90)
               - 0.5 * first_variation(chi, s, fs[1], P90))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_curvature_pairing_oracle(self):
        # against -int c0 H (n . B) d(slice) with H = 1/r for the disk
        g = grid2(256)
        R = 0.25
        chi = shapes.binary_disk(g, (0.5, 0.5), R)
        s = interface_measure(chi, 2 * g.spacing[0])
        X, Y = g.meshes()
        r = np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2)

        def bump(rr):
            return np.where(np.abs(rr - R) < 0.2,
                            np.exp(-(((rr - R) / 0.07) ** 2)), 0.0)

        def bx(x, y):
            rr = np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2)
            return bump(rr) * (x - 0.5) / np.maximum(rr, 1e-12)

        def by(x, y):
            rr = np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2)
            return bump(rr) * (y - 0.5) / np.maximum(rr, 1e-12)

        B = vector_from_callables(g, [bx, by])
        assert B.tangential
        dmu = first_variation(chi, s, B, P90)
        nx, ny = s.normal.components
        nB = nx * B.components[0] + ny * B.components[1]
        oracle = -float(np.sum((1.0 / np.maximum(r, 1e-12)) * nB
                               * s.density.values)) * g.cell_volume
        assert dmu == pytest.approx(oracle, rel=0.05)

    def test_bounded_by_slice_mass(self):
        g = grid2(64)
        p = EnergyParams(2.0, np.pi / 3)
        chi = shapes.binary_disk(g, (0.5, 0.5), 0.25)
        s = interface_measure(chi, 2 * g.spacing[0])
        for B in default_tangential_fields(g)[:6]:
            from mskit.fields import jacobian
            J = jacobian(B, g)
            c1 = max(float(np.max(np.abs(arr))) for row in J for arr in row)
            slice_energy = (p.c0 * s.density.integral() + p.cos_alpha * p.c0
                            * boundary_trace_integral(chi.values, g))
            bound = slice_energy * np.sqrt(g.d) * (B.max_norm() + c1)
            assert abs(first_variation(chi, s, B, p)) <= bound + 1e-12


class TestPairVelocity:
    def test_stripe_normal_motion(self):
        g = grid2(64)
        chi = shapes.stripe(g)
        u = ScalarField(g, np.cos(np.pi * g.meshes()[0]))
        e1 = vector_from_callables(
            g, [lambda x, y: np.ones_like(x), lambda x, y: np.zeros_like(x)])
        assert pair_velocity(chi, e1, u) == pytest.approx(1.0, abs=5e-3)

    def test_stripe_tangential_motion(self):
        g = grid2(64)
        chi = shapes.stripe(g)
        u = ScalarField(g, np.cos(np.pi * g.meshes()[0]))
        e2 = vector_from_callables(
            g, [lambda x, y: np.zeros_like(x), lambda x, y: np.ones_like(x)])
        assert pair_velocity(chi, e2, u) == pytest.approx(0.0, abs=1e-13)

    def test_constant_potential_reduces_to_constraint(self):
        g = grid2(32)
        chi = shapes.binary_disk(g, (0.5, 0.5), 0.25)
        u = ScalarField(g, np.full(g.shape, 3.0))
        for B in default_tangential_fields(g)[:4]:
            lhs = pair_velocity(chi, B, u)
            assert lhs == pytest.approx(-3.0 * constraint_integral(chi, B), rel=1e-10,
                                        abs=1e-12)

    def test_linear_in_potential(self):
        g = grid2(32)
        chi = shapes.binary_disk(g, (0.5, 0.5), 0.25)
        B = default_tangential_fields(g)[0]
        rng = np.random.default_rng(3)
        u = ScalarField(g, rng.standard_normal(g.shape))
        v = ScalarField(g, rng.standard_normal(g.shape))
        w = ScalarField(g, 2.0 * u.values + v.values)
        assert pair_velocity(chi, B, w) == pytest.approx(
            2.0 * pair_velocity(chi, B, u) + pair_velocity(chi, B, v), rel=1e-10)

    def test_matches_pairing_field_for_tangential(self):
        g = grid2(64)
        chi = shapes.stripe(g)
        B = default_tangential_fields(g)[2]
        u = ScalarField(g, np.cos(np.pi * g.meshes()[0]))
        direct = pair_velocity(chi, B, u)
        G = velocity_pairing_field(chi, B)
        quad = float(np.sum(u.values * G)) * g.cell_volume
        assert direct == pytest.approx(quad, rel=0.02, abs=1e-8)


class TestCompatibility:
    def test_self_slice_passes(self):
        for maker in (lambda g: shapes.binary_disk(g, (0.5, 0.5), 0.25),
                      shapes.stripe):
            g = grid2(64)
            chi = maker(g)
            s = interface_measure(chi, 2 * g.spacing[0])
            rep = compatibility_check(chi, s, P90)
            assert rep.ok
            assert rep.comp_identity_residual < 0.05
            assert rep.wall_identity_residual < 0.05

    def test_halved_density_flagged(self):
        g = grid2(64)
        chi = shapes.binary_disk(g, (0.5, 0.5), 0.25)
        s = interface_measure(chi, 2 * g.spacing[0])
        fake = VarifoldSlice(
            s.epsilon, ScalarField(g, 0.5 * s.density.values), s.normal)
        rep = compatibility_check(chi, fake, P90)
        assert not rep.ok

    def test_halved_density_flagged_stripe(self):
        g = grid2(64)
        chi = shapes.stripe(g)
        s = interface_measure(chi, 2 * g.spacing[0])
        fake = VarifoldSlice(
            s.epsilon, ScalarField(g, 0.5 * s.density.values), s.normal)
        rep = compatibility_check(chi, fake, P90)
        assert not rep.ok

    def test_wall_fields_have_prescribed_flux(self):
        # the normal component of the base wall field is a pure cosine per
        # axis, so its outward face value is exactly cos(alpha); check the
        # first cell column against the analytic profile
        g = grid2(32)
        p = EnergyParams(1.0, np.pi / 3)
        basis = default_tangential_fields(g)
        xi0, xi1, xi2 = _wall_flux_fields(g, p, basis)
        first_col = xi0.components[0][0, :]
        expect = -p.cos_alpha * np.cos(np.pi * g.cell_centers(0)[0])
        assert np.allclose(first_col, expect, atol=1e-12)
        for xi, eta in ((xi1, basis[0]), (xi2, basis[1])):
            for c, c0, e in zip(xi.components, xi0.components, eta.components):
                assert np.array_equal(c, c0 + e)


class TestTangentialBasis:
    @pytest.mark.parametrize("dims, lengths", [
        ((32, 32), (1.0, 1.0)), ((64, 64), (1.0, 1.0)), ((64, 32), (2.0, 1.0)),
    ])
    def test_2d_basis_repeats_the_hand_built_one(self, dims, lengths):
        g = make_grid(dims, lengths)
        basis = default_tangential_fields(g)
        ref = tangential_fields_2d_ref(g)
        assert len(basis) == len(ref) == 8
        for k, (B, comps) in enumerate(zip(basis, ref)):
            assert B.tangential, k
            for c, r in zip(B.components, comps):
                assert c.tobytes() == r.tobytes(), k

    def test_3d_basis_has_a_rotation_per_plane(self):
        # 6 sine envelopes, 3 mixing fields, the dilation, then one
        # rotation per coordinate plane in the order (x, y), (x, z), (y, z);
        # each rotation moves no energy of a centred ball
        g = make_grid((24, 24, 24), (1.0, 1.0, 1.0))
        basis = default_tangential_fields(g)
        assert len(basis) == 13
        assert all(B.tangential for B in basis)
        chi = shapes.binary_disk(g, (0.5, 0.5, 0.5), 0.25)
        s = interface_measure(chi, 2 * g.spacing[0])
        dilation = basis[9].components
        for B, (a, b) in zip(basis[10:], [(0, 1), (0, 2), (1, 2)]):
            for c in set(range(3)) - {a, b}:
                assert not B.components[c].any()
            # the in-plane rotation (-r_b, r_a) under the dilation's taper
            assert np.array_equal(B.components[a], -dilation[b])
            assert np.array_equal(B.components[b], dilation[a])
            assert abs(first_variation(chi, s, B, P90)) <= 1e-12
