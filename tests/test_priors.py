import numpy as np
import pytest
from conftest import apply_system

from tofdefog.irls import SolverConfig, _Workspace
from tofdefog.priors import (
    FlipOperator,
    PatchGrid,
    SingularFitError,
    gradient_penalty,
    neighbour_sum,
    symmetry_penalty,
)


def one_patch(rows, cols):
    """A one-patch grid over a rows x cols image and its pixel coordinates."""
    u, v = np.meshgrid(np.arange(rows, dtype=np.float64), np.arange(cols, dtype=np.float64),
                       indexing="ij")
    return PatchGrid(rows, cols, 1, 1), u, v


def test_fit_recovers_exact_quadratic():
    grid, u, v = one_patch(8, 8)
    values = 3.0 * u * u - u + 2.0
    residual = values - grid.surface_image(grid.fit_all(values))
    assert np.max(np.abs(residual)) < 1e-8


def test_fit_constant_patch():
    grid, _, _ = one_patch(5, 7)
    coeffs = grid.fit_all(np.full((5, 7), 5.0))
    assert np.allclose(grid.surface_image(coeffs), 5.0, atol=1e-9)


def test_weighted_fit_ignores_spiked_pixel():
    grid, u, v = one_patch(6, 6)
    clean = 0.5 * u * u + 2.0 * u * v - v + 4.0
    spiked = clean.copy()
    spiked[2, 5] += 1e6
    weights = np.ones_like(clean)
    weights[2, 5] = 0.0
    coeffs = grid.fit_all(spiked, weights)
    assert np.allclose(grid.surface_image(coeffs), clean, atol=1e-6)


def test_fit_is_idempotent():
    grid, _, _ = one_patch(7, 9)
    rng = np.random.default_rng(0)
    values = rng.normal(size=(7, 9))
    first = grid.fit_all(values)
    again = grid.fit_all(grid.surface_image(first))
    assert np.allclose(first, again, atol=1e-10)


def test_fit_rank_deficient_raises():
    grid, _, _ = one_patch(4, 4)
    with pytest.raises(SingularFitError):
        grid.fit_all(np.ones((4, 4)), weights=np.zeros((4, 4)))


def weighted_lstsq_patch_fits(image, weights, grid):
    """Per-patch weighted least squares over an explicit design matrix:
    (coefficients (K, 6), fitted surface image)."""
    coeffs, surface = [], np.empty_like(image)
    for rs, cs in grid.slices:
        u, v = np.meshgrid(np.arange(rs.stop - rs.start, dtype=float),
                           np.arange(cs.stop - cs.start, dtype=float), indexing="ij")
        uu, vv = (t - t.mean() for t in (u.ravel(), v.ravel()))
        uu, vv = uu / max(np.abs(uu).max(), 1.0), vv / max(np.abs(vv).max(), 1.0)
        design = np.column_stack([uu * uu, uu * vv, vv * vv, uu, vv, np.ones_like(uu)])
        root_w = np.sqrt(weights[rs, cs].ravel())
        c = np.linalg.lstsq(root_w[:, None] * design, root_w * image[rs, cs].ravel(),
                            rcond=None)[0]
        coeffs.append(c)
        surface[rs, cs] = (design @ c).reshape(u.shape)
    return np.array(coeffs), surface


def test_fit_all_and_surface_image_match_lstsq_on_uneven_tiling():
    # 245 x 331 in 4 x 4 patches: the last patch row has 62 rows, the others
    # 61, and the last patch column 85 columns, the others 82
    grid = PatchGrid(245, 331, 4, 4)
    assert {(rs.stop - rs.start, cs.stop - cs.start) for rs, cs in grid.slices} == {
        (61, 82), (61, 85), (62, 82), (62, 85)}
    rng = np.random.default_rng(7)
    image = rng.normal(size=(245, 331)) + np.linspace(0, 3, 331)[None, :] ** 2
    weights = rng.uniform(0, 1, (245, 331))
    want_coeffs, want_surface = weighted_lstsq_patch_fits(image, weights, grid)
    coeffs = grid.fit_all(image, weights)
    assert np.allclose(coeffs, want_coeffs, rtol=1e-9, atol=1e-11)
    assert np.allclose(grid.surface_image(coeffs), want_surface, rtol=1e-9, atol=1e-11)
    unweighted, _ = weighted_lstsq_patch_fits(image, np.ones_like(image), grid)
    assert np.allclose(grid.fit_all(image), unweighted, rtol=1e-9, atol=1e-11)


def test_fit_all_raises_when_one_patch_has_no_weight():
    grid = PatchGrid(245, 331, 4, 4)
    weights = np.ones((245, 331))
    rs, cs = grid.slices[6]
    weights[rs, cs] = 0.0
    with pytest.raises(SingularFitError):
        grid.fit_all(np.zeros((245, 331)), weights)


def brute_force_mirror_rows(rows, op):
    """Rows r whose mirror 2*flip_row - r is inside the image, neither row
    in the excluded band: {r: mirror}."""
    first_excluded = rows - op.excluded_bottom_rows
    out = {}
    for r in range(rows):
        m = 2 * op.flip_row - r
        if 0 <= m < rows and r < first_excluded and m < first_excluded:
            out[r] = m
    return out


def test_flip_halves_apply_and_diag_match_brute_force_rule():
    # the x-step operator's symmetry part alone (gamma2 = 1, zero weights):
    # its diagonal and its mirror term both come from the two halves
    rng = np.random.default_rng(6)
    cases = 0
    for rows in range(1, 13):
        img = rng.normal(size=(rows, 3))
        for flip_row in range(rows):
            for excluded in range(rows + 2):
                op = FlipOperator(flip_row=flip_row, excluded_bottom_rows=excluded)
                pairs = brute_force_mirror_rows(rows, op)
                lower, upper = op.halves(rows)
                lo = list(range(rows))[lower]
                up = list(range(rows))[upper]
                assert lo == [r for r in sorted(pairs) if r < flip_row]
                assert up[::-1] == [pairs[r] for r in lo]
                cases += 1
                if rows < 3:
                    continue  # a workspace's patch grid needs 3x3 pixels
                ws = _Workspace((rows, 3), SolverConfig(
                    gamma1=0.0, gamma2=1.0, gamma3=0.0, c_coarse=1.0, c_fine=1.0,
                    patch_grid=(1, 1), flip=op))
                diag = np.array([2.0 if r in pairs and r != flip_row else 0.0
                                 for r in range(rows)])
                assert np.array_equal(ws.fixed_diag, np.repeat(diag[:, None], 3, 1))
                want = np.zeros_like(img)
                for r, m in pairs.items():
                    if r != flip_row:
                        want[r] = 2.0 * img[r] - 2.0 * img[m]
                assert np.array_equal(apply_system(ws, np.zeros_like(img), img), want)
    assert cases > 500
    # flip_row 0 and a flip row inside the excluded band mirror nothing
    for op in (FlipOperator(flip_row=0, excluded_bottom_rows=0),
               FlipOperator(flip_row=9, excluded_bottom_rows=4)):
        lower, upper = op.halves(12)
        assert lower.start == lower.stop and upper.start == upper.stop


def test_flip_row_outside_image_rejected():
    op = FlipOperator(flip_row=8)
    with pytest.raises(ValueError):
        op.halves(8)


def test_symmetry_penalty_zero_iff_symmetric():
    op = FlipOperator(flip_row=8, excluded_bottom_rows=2)
    u = np.arange(16, dtype=float)[:, None] - 8
    img = np.repeat(u * u, 4, axis=1)
    assert symmetry_penalty(img, op) == 0.0
    img[3, 2] += 1.0
    assert symmetry_penalty(img, op) > 0.0


def test_symmetry_penalty_ignores_excluded_rows():
    op = FlipOperator(flip_row=8, excluded_bottom_rows=4)
    u = np.arange(16, dtype=float)[:, None] - 8
    img = np.repeat(u * u, 4, axis=1)
    img[13:, :] += 100.0  # excluded band and rows whose mirrors are excluded
    assert symmetry_penalty(img, op) == 0.0


def test_gradient_penalty_constant_zero():
    assert gradient_penalty(np.full((9, 9), 3.5)) == 0.0


def test_gradient_penalty_ramp():
    n, s = 12, 0.75
    ramp = np.arange(n, dtype=float)[None, :] * s  # one row, horizontal ramp
    assert gradient_penalty(ramp) == pytest.approx(s * s * (n - 1))


def test_gradient_penalty_matches_brute_force():
    rng = np.random.default_rng(3)
    img = rng.normal(size=(7, 9))
    brute = 0.0
    for i in range(7):
        for j in range(9):
            if j + 1 < 9:
                brute += (img[i, j + 1] - img[i, j]) ** 2
            if i + 1 < 7:
                brute += (img[i + 1, j] - img[i, j]) ** 2
    assert gradient_penalty(img) == pytest.approx(brute, rel=1e-12)


def test_penalties_are_quadratic_forms():
    rng = np.random.default_rng(4)
    img = rng.normal(size=(16, 8))
    op = FlipOperator(flip_row=8, excluded_bottom_rows=1)
    lam = 3.7
    assert symmetry_penalty(lam * img, op) == pytest.approx(
        lam * lam * symmetry_penalty(img, op), rel=1e-12
    )
    assert gradient_penalty(lam * img) == pytest.approx(
        lam * lam * gradient_penalty(img), rel=1e-12
    )


def test_laplacian_matches_penalty_gradient():
    # <x, Lx> must equal the penalty for the quadratic form 0.5*x'(2L)x
    rng = np.random.default_rng(5)
    img = rng.normal(size=(6, 7))
    lap_img = neighbour_sum(np.ones(img.shape)) * img - neighbour_sum(img)
    assert float(np.sum(img * lap_img)) == pytest.approx(
        gradient_penalty(img), rel=1e-12
    )
    assert np.allclose(neighbour_sum(np.ones((6, 7)))[0, 0], 2.0)


def test_patch_grid_kinect_layout():
    grid = PatchGrid(424, 512, 4, 4)
    assert grid.n_patches == 16
    sizes = {(rs.stop - rs.start, cs.stop - cs.start) for rs, cs in grid.slices}
    assert sizes == {(106, 128)}


def test_patch_grid_tiles_exactly():
    grid = PatchGrid(17, 23, 3, 4)  # non-divisible: trailing patches absorb
    cover = np.zeros((17, 23), dtype=int)
    for rs, cs in grid.slices:
        cover[rs, cs] += 1
    assert np.all(cover == 1)


def test_patch_grid_rejects_tiny_patches():
    with pytest.raises(ValueError):
        PatchGrid(8, 8, 4, 4)  # 2x2 patches cannot hold a quadratic


@pytest.mark.parametrize("rows, cols, grid", [
    (424, 512, (4, 4)), (240, 320, (4, 4)), (16, 16, (2, 2)), (17, 23, (3, 5)), (10, 9, (3, 3)),
])
def test_expand_patch_values_matches_a_per_patch_loop(rows, cols, grid):
    patches = PatchGrid(rows, cols, *grid)
    values = np.random.default_rng(0).normal(size=patches.n_patches)
    expected = np.empty((rows, cols))
    for k, (rs, cs) in enumerate(patches.slices):
        expected[rs, cs] = values[k]
    out = patches.expand_patch_values(values)
    assert out.dtype == np.float64 and np.array_equal(out, expected)


@pytest.mark.parametrize("call, match", [
    (lambda: PatchGrid(12, 12, 0, 2), "at least 1x1"),
    (lambda: PatchGrid(12, 12, 2, -1), "at least 1x1"),
    (lambda: FlipOperator(flip_row=-1), "flip_row must be non-negative"),
    (lambda: FlipOperator(flip_row=4, excluded_bottom_rows=-2),
     "excluded_bottom_rows must be non-negative"),
], ids=["zero-patch-rows", "negative-patch-cols", "negative-flip-row", "negative-band"])
def test_a_negative_or_empty_operator_size_is_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("kwargs, match", [
    # a bool is an int to Python: True used to mirror about row 1
    ({"flip_row": True}, r"flip_row must be non-negative and an int, got True"),
    ({"flip_row": 20.5}, r"flip_row must be non-negative and an int, got 20\.5"),
    ({"flip_row": 8, "excluded_bottom_rows": 2.0},
     r"excluded_bottom_rows must be non-negative and an int, got 2\.0"),
    ({"flip_row": 8, "excluded_bottom_rows": False},
     r"excluded_bottom_rows must be non-negative and an int, got False"),
], ids=["bool-row", "float-row", "float-band", "bool-band"])
def test_a_flip_geometry_that_is_not_an_int_is_rejected_naming_the_field(kwargs, match):
    with pytest.raises(ValueError, match=match):
        FlipOperator(**kwargs)
