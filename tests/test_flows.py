import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mskit import diagnostics, flows
from mskit.diagnostics import (
    NORMALIZER_FLOOR,
    gibbs_thomson_residual,
    lagrange_multiplier,
    potential_w,
)
from mskit.energy import (
    EnergyParams,
    PhaseField,
    compatibility_check,
    constraint_integral,
    default_tangential_fields,
    interface_measure,
    mollification_width,
    velocity_pairing_field,
)
from mskit.fields import (
    _SUBLATTICE,
    MeanZeroField,
    VectorField,
    _ghost_pad,
    hminus_norm_sq,
    make_grid,
    vector_from_callables,
)
from mskit.flows import (
    _CFL_FRACTION,
    _MASS_TOL_FRACTION,
    _InterpScratch,
    _build_map,
    _flow_displacement,
    _interface_band,
    _interp_vector,
    _pullback,
    construct_xi,
    flow_deform,
    project_to_S_chi,
    velocity_convergence_check,
)
from mskit.scenarios import default_scenarios, make_initial

import shapes
from oracles import pullback_ref

# r(s) of `mskit check flows` (64^2 ball, projected rotation field)
CHECK_FLOWS_R = (
    0.013479389720302229,
    0.015036817455229211,
    0.017724416791066955,
    0.02575791612709803,
)
# the interface audit of the same ball with a zero potential, as the
# `flow_verify` benchmark runs it: multiplier, Gibbs-Thomson residual and
# the two compatibility identity residuals
CHECK_FLOWS_LAMBDA = 3.8314470064454227
CHECK_FLOWS_GT_RESIDUAL = 0.01157338743602623
CHECK_FLOWS_COMPAT = (0.0013398239385823008, 0.0013378501113719943)
# `_interp_vector` calls of `mskit check flows` over its four s values:
# each interpolates at most one grid's worth of points and together they
# are the cost. The RK4 stages that build each map (528), then one call
# per map for each chunk of each pullback's interface band (38 pullbacks:
# one plain deformation per s, then a mass search started at its
# linearised parameter); 708 is the measured count
CHECK_FLOWS_MAX_INTERPOLATIONS = 708

# Analytic dual norm of the pairing field for the mid-plane stripe under
# B = (sin(pi x) cos(2 pi y), 0): expanding the interface line measure in
# the Neumann cosine basis gives
#   1/(8 pi^2) + (pi coth(pi) - 1)/(8 pi^2)  = 0.0399376...
STRIPE_PAIRING_NORM = 0.19984396


def grid2(n=64):
    return make_grid((n, n), (1.0, 1.0))


def zero_field(grid):
    return VectorField(
        grid, tuple(np.zeros(grid.dims) for _ in range(grid.d)), tangential=True
    )


def negate(B):
    return VectorField(
        B.domain, tuple(-c for c in B.components), tangential=True
    )


def apply_map(disp, grid, pts):
    off = _interp_vector(disp, grid, pts, _InterpScratch(grid.d, np.shape(pts[0])))
    return [p + o for p, o in zip(pts, off)]


def backward_pullback_reference(chi, B, s):
    """Cell averages of chi read at the supersample points flowed by -s.

    Each point is integrated backwards on its own with the RK4 substeps
    of a flow map, so no gridded displacement is interpolated: this is the
    true inverse of the flow of B, kept as the oracle for `_pullback`.
    """
    grid = chi.domain
    comps = _ghost_pad(B.components, tangential=True)
    n_sub = max(1, int(np.ceil(
        abs(s) * B.max_norm() / (_CFL_FRACTION * min(grid.spacing))
    )))
    dt = -s / n_sub
    axes = [grid.cell_centers(a) for a in range(grid.d)]
    centers = np.meshgrid(*axes, indexing="ij")
    offs = (np.arange(_SUBLATTICE) + 0.5) / _SUBLATTICE - 0.5
    acc = np.zeros(grid.shape)
    sc = _InterpScratch(grid.d, grid.shape)
    for shift in itertools.product(offs, repeat=grid.d):
        X = [c + o * h for c, o, h in zip(centers, shift, grid.spacing)]
        for _ in range(n_sub):
            k1 = _interp_vector(comps, grid, X, sc)
            k2 = _interp_vector(comps, grid, [x + 0.5 * dt * k for x, k in zip(X, k1)], sc)
            k3 = _interp_vector(comps, grid, [x + 0.5 * dt * k for x, k in zip(X, k2)], sc)
            k4 = _interp_vector(comps, grid, [x + dt * k for x, k in zip(X, k3)], sc)
            X = [x + dt / 6.0 * (a + 2 * b + 2 * c + e)
                 for x, a, b, c, e in zip(X, k1, k2, k3, k4)]
        idx = tuple(
            np.clip(np.floor(x / h).astype(np.int64), 0, n - 1)
            for x, h, n in zip(X, grid.spacing, grid.dims)
        )
        acc += chi.values[idx]
    return acc / _SUBLATTICE ** grid.d


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


@pytest.fixture(scope="module")
def check_flows_case():
    """The ball and projected rotation field of `mskit check flows`."""
    chi = make_initial(
        next(s for s in default_scenarios(64) if s.name == "ball")
    )
    grid = chi.domain
    B = vector_from_callables(
        grid,
        (lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y),
         lambda x, y: -np.sin(np.pi * y) * np.cos(np.pi * x)),
    )
    xi = construct_xi(chi, mollification_width(grid))
    return chi, project_to_S_chi(B, chi, xi)


@st.composite
def interpolation_cases(draw):
    d = draw(st.sampled_from((2, 3)))
    dims = tuple(draw(st.integers(8, 13)) for _ in range(d))
    lengths = tuple(draw(st.sampled_from((0.5, 1.0, 1.7))) for _ in range(d))
    # how far, in cells, points may lie beyond the faces: 0.5 is as far as
    # the ghost layer reaches
    reach = draw(st.sampled_from((0.0, 0.5)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return d, dims, lengths, reach, seed


class TestInterpolation:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(interpolation_cases())
    def test_bit_identical_to_per_component_reference(self, case):
        d, dims, lengths, reach, seed = case
        grid = make_grid(dims, lengths)
        rng = np.random.default_rng(seed)
        comps = [rng.standard_normal(dims) for _ in range(d)]
        pts = []
        for L, h in zip(lengths, grid.spacing):
            x = rng.uniform(-reach * h, L + reach * h, 48)
            x[:4] = (0.0, L, 0.0, L)  # on the faces
            pts.append(rng.permutation(x).reshape(6, 8))
        padded = _ghost_pad(comps, tangential=True)
        scratch = _InterpScratch(d, pts[0].shape)
        out = _interp_vector(padded, grid, pts, scratch)
        for a in range(d):
            ref = _interp_component_reference(comps[a], grid, pts, a)
            assert out[a].shape == ref.shape
            assert np.array_equal(out[a], ref)

        # consecutive calls at different points through one scratch, each
        # result its own array
        results = []
        for pts_k in (pts, [p[::-1] * 0.5 for p in pts], pts):
            out = _interp_vector(padded, grid, pts_k, scratch)
            for a in range(d):
                ref = _interp_component_reference(comps[a], grid, pts_k, a)
                assert np.array_equal(out[a], ref)
            results.extend(out)
        assert not any(np.shares_memory(x, y)
                       for x, y in itertools.combinations(results, 2))

        # the RK4 stages of a flow map share one scratch: k1..k4 must stay
        # distinct arrays, and the map must equal one built without reuse
        B = VectorField(grid, comps, tangential=True)
        s = 0.25 * min(grid.spacing) / B.max_norm()  # three substeps
        interp = flows._interp_vector
        stages, fresh = [], []

        def recorded(components, grid_, pts_, scratch_):
            stages.append(interp(components, grid_, pts_, scratch_))
            return stages[-1]

        def unbuffered(components, grid_, pts_, scratch_):
            own = _InterpScratch(grid_.d, np.shape(pts_[0]))
            fresh.append(interp(components, grid_, pts_, own))
            return fresh[-1]

        try:
            flows._interp_vector = recorded
            disp = _flow_displacement(B, grid, s)
            flows._interp_vector = unbuffered
            ref = _flow_displacement(B, grid, s)
        finally:
            flows._interp_vector = interp
        assert len(stages) == len(fresh) == 12
        arrays = [c for k in stages for c in k] + disp
        assert not any(np.shares_memory(x, y)
                       for x, y in itertools.combinations(arrays, 2))
        for a in range(d):
            assert np.array_equal(disp[a], ref[a])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.sampled_from((2, 3)),
        st.sampled_from((0.25, 0.5)),
        st.integers(0, 2 ** 32 - 1),
    )
    def test_ghost_layer_bit_identical_to_reference(self, d, cells, seed):
        # points up to `cells` cells beyond the faces, with one on the outer
        # edge of each ghost layer: the corners it reads are all ghosts
        rng = np.random.default_rng(seed)
        dims = tuple(int(n) for n in rng.integers(8, 14, d))
        lengths = tuple(float(L) for L in rng.choice((0.5, 1.0, 1.7), d))
        grid = make_grid(dims, lengths)
        comps = [rng.standard_normal(dims) for _ in range(d)]
        pts = []
        for L, h in zip(lengths, grid.spacing):
            x = rng.uniform(-cells * h, L + cells * h, 48)
            x[:4] = (0.0, L, -cells * h, L + (cells - 1e-9) * h)
            pts.append(rng.permutation(x).reshape(6, 8))
        out = _interp_vector(_ghost_pad(comps, tangential=True), grid, pts,
                             _InterpScratch(d, pts[0].shape))
        for a in range(d):
            ref = _interp_component_reference(comps[a], grid, pts, a)
            assert np.array_equal(out[a], ref)

    def test_empty_points(self):
        g = make_grid((8, 8), (1.0, 1.0))
        comps = _ghost_pad([np.ones(g.dims), np.ones(g.dims)], tangential=True)
        out = _interp_vector(comps, g, [np.zeros(0), np.zeros(0)],
                             _InterpScratch(2, (0,)))
        assert [o.shape for o in out] == [(0,), (0,)]

    def test_reach_is_half_a_cell(self):
        g = make_grid((8, 8), (1.0, 1.0))
        rng = np.random.default_rng(3)
        comps = [rng.standard_normal(g.dims) for _ in range(2)]
        padded = _ghost_pad(comps, tangential=True)
        h = g.spacing[0]
        y = np.array([3.5 * h])
        scratch = _InterpScratch(2, (1,))
        # half a cell below x = 0 is the ghost cell centre: the normal
        # component reflects oddly, the tangential one evenly
        out = _interp_vector(padded, g, [np.array([-0.5 * h]), y], scratch)
        assert out[0][0] == -comps[0][0, 3]
        assert out[1][0] == comps[1][0, 3]
        with pytest.raises(ValueError, match="outside the box on axis 0"):
            _interp_vector(padded, g, [np.array([-(0.5 + 1e-9) * h]), y], scratch)


class TestSolverFailures:
    def test_mass_bisection_cap_raises(self, disk64, member64, monkeypatch):
        monkeypatch.setattr(flows, "_MASS_BISECT_STEPS", 1)
        with pytest.raises(
            ValueError, match=r"in 1 bisection steps: drift .* vs mass_tol"
        ):
            flow_deform(disk64, member64, 0.04)

    def test_mass_bracket_raises(self, monkeypatch):
        chi = shapes.binary_disk(grid2(32), (0.5, 0.5), 0.3)
        xi = construct_xi(chi, mollification_width(chi.domain))
        B = project_to_S_chi(
            default_tangential_fields(chi.domain)[1], chi, xi
        )
        # a resampling that never moves mass can never reach the target;
        # identity maps keep every evaluation cheap, whatever its parameter
        stuck = np.where(chi.values > 0.5, 0.9, 0.0)
        sigmas = []

        def build(field, grid, s):
            sigmas.append(s)
            return _ghost_pad(zero_field(grid).components, tangential=True)

        monkeypatch.setattr(flows, "_pullback", lambda chi, maps: stuck)
        monkeypatch.setattr(flows, "_build_map", build)
        with pytest.raises(ValueError, match="failed to bracket the target"):
            flow_deform(chi, B, 0.04)
        # the growth stops at its first parameter beyond the box diameter,
        # before building that map (the first build is the deformation)
        reach = np.sqrt(2.0) / xi.max_norm()
        grown = [abs(x) for x in sigmas[1:]]
        assert max(grown) <= reach < 2.0 * max(grown)


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


def with_pairing(xi, chi, pairing):
    """xi rescaled so that its volume pairing with chi is `pairing`."""
    k = pairing / constraint_integral(chi, xi)
    return VectorField(xi.domain, [k * c for c in xi.components], tangential=True)


class TestNormalizerFloor:
    """Every direction field xi is refused at one floor: a volume pairing
    integral chi div(xi) below NORMALIZER_FLOOR."""

    BELOW, ABOVE = 0.5 * NORMALIZER_FLOOR, 2.0 * NORMALIZER_FLOOR

    def test_construct_xi(self, disk64, monkeypatch):
        pairing = constraint_integral(disk64, construct_xi(disk64, 4.0 / 64))
        grad = diagnostics.grad_centered
        for target in (self.BELOW, self.ABOVE):
            monkeypatch.setattr(diagnostics, "grad_centered", lambda v, g: [
                target / pairing * c for c in grad(v, g)])
            if target < NORMALIZER_FLOOR:
                with pytest.raises(ValueError, match="degenerate multiplier normalizer"):
                    construct_xi(disk64, 4.0 / 64)
            else:
                xi = construct_xi(disk64, 4.0 / 64)
                assert constraint_integral(disk64, xi) == pytest.approx(target)

    def test_lagrange_multiplier(self, disk64):
        xi = construct_xi(disk64, 4.0 / 64)
        slc = interface_measure(disk64, 4.0 / 64)
        zw = MeanZeroField(disk64.domain, np.zeros(disk64.domain.shape))
        p = EnergyParams(1.0, np.pi / 2)
        with pytest.raises(ValueError, match="degenerate multiplier normalizer"):
            lagrange_multiplier(disk64, slc, zw, with_pairing(xi, disk64, self.BELOW), p)
        assert np.isfinite(lagrange_multiplier(
            disk64, slc, zw, with_pairing(xi, disk64, self.ABOVE), p))

    def test_project_to_S_chi(self, disk64, dictionary64):
        xi = construct_xi(disk64, 4.0 / 64)
        with pytest.raises(ValueError, match="degenerate multiplier normalizer"):
            project_to_S_chi(dictionary64[6], disk64, with_pairing(xi, disk64, self.BELOW))
        out = project_to_S_chi(dictionary64[6], disk64, with_pairing(xi, disk64, self.ABOVE))
        assert abs(constraint_integral(disk64, out)) <= 1e-10

    def test_flow_deform(self, check_flows_case, monkeypatch):
        # the mass correction flows along xi, which the deformation builds
        chi, B = check_flows_case
        xi = construct_xi(chi, mollification_width(chi.domain))
        monkeypatch.setattr(flows, "construct_xi",
                            lambda chi, eps: with_pairing(xi, chi, self.BELOW))
        with pytest.raises(ValueError, match="degenerate multiplier normalizer"):
            flow_deform(chi, B, 0.08)


class TestFlowMapGeometry:
    def test_zero_parameter_is_identity(self, disk64, member64):
        _, out = flow_deform(disk64, member64, 0.0)
        assert np.array_equal(out.values, disk64.values)
        assert out.integral() == disk64.integral()

    def test_inverse_is_reverse_flow(self, disk64, member64):
        # the map over s is the flow of B over -s, which is the flow of -B
        # over s
        g = disk64.domain
        s = 0.05
        fmap = _build_map(member64, g, s)
        other = _build_map(negate(member64), g, -s)
        for a, b in zip(fmap, other):
            assert np.array_equal(a, b)

    def test_forward_inverse_roundtrip(self, disk64, member64):
        # the map over -s moves forward over s; the two gridded flows invert
        # each other up to their interpolation error, which is O(h^2) and
        # about 0.2-0.3% of a cell here
        g = disk64.domain
        xs = np.linspace(0.05, 0.95, 7)
        pts = [m.ravel() for m in np.meshgrid(xs, xs, indexing="ij")]
        fwd = apply_map(_build_map(member64, g, -0.05), g, pts)
        back = apply_map(_build_map(member64, g, 0.05), g, fwd)
        err = max(np.max(np.abs(b - p)) for b, p in zip(back, pts))
        assert err <= 0.01 * min(g.spacing)

    def test_walls_map_to_themselves(self, disk64, member64):
        g = disk64.domain
        fmap = _build_map(member64, g, 0.05)
        ys = np.linspace(0.0, 1.0, 33)
        # the wall-normal offset cancels exactly between ghost and interior
        # corners
        for x0 in (0.0, 1.0):
            fx, _ = apply_map(fmap, g, [np.full_like(ys, x0), ys])
            assert np.all(fx == x0)
        for y0 in (0.0, 1.0):
            _, fy = apply_map(fmap, g, [ys, np.full_like(ys, y0)])
            assert np.all(fy == y0)

    @pytest.mark.parametrize("n, s", [(32, -0.02), (64, 0.04)])
    def test_pullback_matches_backward_flow(self, n, s):
        # one interpolation of the reverse-flow displacement lands every
        # supersample point in the cell its own backward flow reaches
        chi = shapes.binary_disk(grid2(n), (0.5, 0.5), 0.3)
        g = chi.domain
        xi = construct_xi(chi, mollification_width(g))
        B = project_to_S_chi(default_tangential_fields(g)[4], chi, xi)
        vals = _pullback(chi, (_build_map(B, g, s),))
        assert np.array_equal(vals, backward_pullback_reference(chi, B, s))

    def test_reverse_flow_composition(self, disk64, member64):
        """The backward flow map undoes the forward one before resampling."""
        s = 0.02
        fwd = _build_map(member64, disk64.domain, s)
        bwd = _build_map(negate(member64), disk64.domain, s)
        vals = _pullback(disk64, [bwd, fwd])
        err = float(np.abs(vals - disk64.values).sum()) * disk64.domain.cell_volume
        assert err <= 2.0 * resample_floor(disk64)


@st.composite
def pullback_cases(draw):
    d = draw(st.sampled_from((2, 3)))
    dims = tuple(draw(st.integers(8, 13 if d == 2 else 9)) for _ in range(d))
    lengths = tuple(draw(st.sampled_from((0.5, 1.0, 1.7))) for _ in range(d))
    fractional = draw(st.booleans())
    # per map, how it is made and how far it moves points, in cells of the
    # finest axis: up to beyond half the box
    maps = draw(st.lists(
        st.tuples(st.sampled_from(("flow", "raw")),
                  st.sampled_from((0.0, 0.3, 0.7, 1.6, 3.2, 7.0))),
        min_size=1, max_size=2,
    ))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return d, dims, lengths, fractional, maps, seed


def ball_phase(grid, rng, fractional):
    """A ball anywhere in (or across the walls of) the box; fractional
    values fill its boundary shell and may fill its inside."""
    L = np.array(grid.lengths)
    center = rng.uniform(-0.2, 1.2, grid.d) * L
    radius = rng.uniform(0.1, 0.5) * L.min()
    dist = np.sqrt(sum((x - c) ** 2 for x, c in zip(grid.meshes(), center)))
    vals = (dist < radius).astype(float)
    if fractional:
        vals *= rng.choice((1.0, rng.uniform()))
        shell = np.abs(dist - radius) < max(grid.spacing)
        vals[shell] = rng.uniform(size=int(shell.sum()))
    return PhaseField(grid, vals)


class TestInterfaceBand:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(pullback_cases())
    def test_bit_identical_to_full_grid(self, case):
        d, dims, lengths, fractional, recipe, seed = case
        grid = make_grid(dims, lengths)
        rng = np.random.default_rng(seed)
        chi = ball_phase(grid, rng, fractional)
        step = min(grid.spacing)
        maps = []
        for kind, cells in recipe:
            comps = [rng.standard_normal(dims) for _ in range(d)]
            if kind == "raw":
                # any displacement: a second map may read beyond the ghost
                # layer, and then both pullbacks must raise
                scale = cells * step / max(np.abs(c).max() for c in comps)
                maps.append(_ghost_pad([scale * c for c in comps], tangential=True))
            else:
                B = VectorField(grid, comps, tangential=True)
                maps.append(_build_map(B, grid, cells * step / B.max_norm()))
        try:
            ref = pullback_ref(chi, maps)
        except ValueError as err:
            assert "outside the box on axis" in str(err)
            with pytest.raises(ValueError, match="outside the box on axis"):
                _pullback(chi, maps)
        else:
            assert np.array_equal(_pullback(chi, maps), ref)

    def test_points_pushed_past_the_ghost_layer_raise(self):
        # the interface is a mid-box line, far from the walls; the first map
        # moves every point two cells towards x = 0, so the samples of the
        # first two columns, which the interface alone leaves out of the
        # band (the push alone reaches as far and adds no face cells),
        # reach the second map beyond the ghost layer
        g = make_grid((16, 16), (1.0, 1.0))
        chi = shapes.stripe(g)
        h = g.spacing[0]
        push = _ghost_pad([np.full(g.dims, -2.0 * h), np.zeros(g.dims)],
                          tangential=True)
        still = _ghost_pad(zero_field(g).components, tangential=True)
        edge = np.ravel_multi_index((0, 8), g.dims)
        assert edge not in _interface_band(chi.values, g, (push,))
        assert edge in _interface_band(chi.values, g, (push, still))
        with pytest.raises(ValueError, match="outside the box on axis"):
            pullback_ref(chi, (push, still))
        with pytest.raises(ValueError, match="outside the box on axis"):
            _pullback(chi, (push, still))

    @pytest.mark.parametrize("cells", [0.0, 0.1, 0.5, 0.7, 1.0, 1.2, 2.65])
    def test_band_spares_half_a_cell(self, cells):
        # a sample sits within 3/8 of a cell of its centre, so moved by up
        # to half a cell more than the maps can move it, it reads cells
        # nearer than their reach plus 11/8 cells, centre to centre: all of
        # them must be in the band (a radius of ceil(reach) alone leaves
        # less than half a cell to spare)
        g = make_grid((24, 16), (1.0, 2.0))
        vals = np.zeros(g.dims)
        odd = (11, 7)
        vals[odd] = 1.0
        chi = PhaseField(g, vals)
        disp = _ghost_pad([np.full(g.dims, cells * h) for h in g.spacing],
                          tangential=True)
        band = np.zeros(g.dims, dtype=bool)
        band.flat[_interface_band(chi.values, g, (disp,))] = True
        i, j = np.indices(g.dims)
        near = (np.abs(i - odd[0]) < cells + 11 / 8) & (np.abs(j - odd[1]) < cells + 11 / 8)
        assert np.all(band[near])
        assert not np.all(band)


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

    @pytest.mark.parametrize("n, center, radius", [
        (64, (0.5, 0.5), 0.3),
        (64, (0.45, 0.55), 0.22),
        (48, (0.4, 0.5), 0.27),
    ])
    def test_large_rotation_keeps_mass(self, n, center, radius):
        # a fixed-point inversion of the forward map stalled on these disks
        chi = shapes.binary_disk(grid2(n), center, radius)
        g = chi.domain
        xi = construct_xi(chi, mollification_width(g))
        B = project_to_S_chi(default_tangential_fields(g)[7], chi, xi)
        _, out = flow_deform(chi, B, 0.08)
        drift = abs(float(out.values.mean()) * g.volume - chi.m0)
        assert drift <= _MASS_TOL_FRACTION * g.volume

    def test_values_are_cell_fractions(self, disk64, member64):
        _, out = flow_deform(disk64, member64, 0.04)
        assert np.all(out.values >= 0.0)
        assert np.all(out.values <= 1.0)


def test_check_flows_audit_pinned(check_flows_case):
    chi, _B = check_flows_case
    grid = chi.domain
    p = next(s for s in default_scenarios(64) if s.name == "ball").params
    eps = mollification_width(grid)
    slc = interface_measure(chi, eps)
    rep = compatibility_check(chi, slc, p)
    w = potential_w(chi, chi, 1.0)
    lam = lagrange_multiplier(chi, slc, w, construct_xi(chi, eps), p)
    gt = gibbs_thomson_residual(chi, slc, w, lam, p, default_tangential_fields(grid))
    assert rep.ok
    assert (rep.comp_identity_residual, rep.wall_identity_residual) == pytest.approx(
        CHECK_FLOWS_COMPAT, rel=1e-12)
    assert lam == pytest.approx(CHECK_FLOWS_LAMBDA, rel=1e-12)
    assert gt == pytest.approx(CHECK_FLOWS_GT_RESIDUAL, rel=1e-12)


class TestVelocityConvergence:
    def test_zero_field_zero_residual(self, disk64):
        rep = velocity_convergence_check(disk64, zero_field(disk64.domain))
        assert rep.r_values == (0.0, 0.0, 0.0, 0.0)
        assert rep.monotone

    def test_check_flows_interpolation_count(self, check_flows_case, monkeypatch):
        chi, B = check_flows_case
        calls = []
        interp = flows._interp_vector

        def counted(*args):
            calls.append(1)
            return interp(*args)

        monkeypatch.setattr(flows, "_interp_vector", counted)
        rep = velocity_convergence_check(chi, B)
        assert len(calls) <= CHECK_FLOWS_MAX_INTERPOLATIONS
        assert rep.r_values == pytest.approx(CHECK_FLOWS_R, rel=1e-12)

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

