import numpy as np
import pytest

from qrsteg.errors import QrstegError, ShapeError
from qrsteg.quality import (
    IDENTICAL,
    QualityReport,
    capacity_bpp,
    mse,
    psnr_from_mse,
    SsimReference,
    ssim,
    write_csv,
)
from qrsteg.videoio import FrameYuv420

C1 = (0.01 * 255.0) ** 2
C2 = (0.03 * 255.0) ** 2


def frame_from(y, u=None, v=None):
    y = np.asarray(y, dtype=np.uint8)
    h, w = y.shape
    if u is None:
        u = np.full((h // 2, w // 2), 128, dtype=np.uint8)
    if v is None:
        v = np.full((h // 2, w // 2), 128, dtype=np.uint8)
    return FrameYuv420(y=y, u=np.asarray(u, dtype=np.uint8), v=np.asarray(v, dtype=np.uint8))


def naive_mse(a, b):
    # independent double-loop oracle
    total = 0.0
    count = 0
    for pa, pb in ((a.y, b.y), (a.u, b.u), (a.v, b.v)):
        for i in range(pa.shape[0]):
            for j in range(pa.shape[1]):
                diff = float(pa[i, j]) - float(pb[i, j])
                total += diff * diff
                count += 1
    return total / count


def test_mse_identical_is_zero():
    f = frame_from(np.arange(16, dtype=np.uint8).reshape(4, 4))
    assert mse(f, f) == 0.0


def test_mse_luma_hand_case():
    a = frame_from([[10, 10], [10, 10]])
    b = frame_from([[12, 10], [10, 10]])
    assert mse(a, b) == pytest.approx(4.0 / 6.0)  # chroma dilutes


def test_mse_matches_naive_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = frame_from(
            rng.integers(0, 256, (8, 8)),
            rng.integers(0, 256, (4, 4)),
            rng.integers(0, 256, (4, 4)),
        )
        b = frame_from(
            rng.integers(0, 256, (8, 8)),
            rng.integers(0, 256, (4, 4)),
            rng.integers(0, 256, (4, 4)),
        )
        fast, slow = mse(a, b), naive_mse(a, b)
        assert abs(fast - slow) <= 1e-12 * max(1.0, slow)


def test_mse_rejects_geometry_mismatch():
    a = frame_from(np.zeros((4, 4)))
    b = frame_from(np.zeros((4, 6)))
    with pytest.raises(ShapeError):
        mse(a, b)


def test_psnr_values():
    assert psnr_from_mse(1.0) == pytest.approx(48.13, abs=0.005)
    assert psnr_from_mse(0.0) is IDENTICAL
    f = frame_from(np.zeros((2, 2)))
    assert psnr_from_mse(mse(f, f)) is IDENTICAL


def test_psnr_strictly_decreasing_in_mse():
    values = [psnr_from_mse(m) for m in (0.1, 0.2, 0.5, 1.0, 5.0, 100.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_ssim_identity_and_symmetry():
    rng = np.random.default_rng(4)
    o = rng.integers(0, 256, (16, 16)).astype(np.uint8)
    e = rng.integers(0, 256, (16, 16)).astype(np.uint8)
    assert ssim(o, o) == pytest.approx(1.0)
    assert ssim(o, e) == pytest.approx(ssim(e, o))
    assert -1.0 <= ssim(o, e) <= 1.0


def test_ssim_constant_shifted_by_peak():
    # mu_o = 0, mu_e = 255, zero variances: only the stabilizers survive.
    o = np.zeros((8, 8), dtype=np.uint8)
    e = np.full((8, 8), 255, dtype=np.uint8)
    expected = C1 / (255.0**2 + C1)  # (0+C1)(0+C2) / ((0+255^2+C1)(0+C2))
    assert ssim(o, e) == pytest.approx(expected)


def test_ssim_inverted_image_is_near_minus_one():
    o = np.zeros((2, 2), dtype=np.uint8)
    o[0, 0] = 255
    o[1, 1] = 255
    e = 255 - o
    # means 127.5, var 127.5^2, cov -127.5^2, evaluated straight from the formula
    s2 = 127.5**2
    expected = (2 * s2 + C1) * (-2 * s2 + C2) / ((2 * s2 + C1) * (2 * s2 + C2))
    assert ssim(o, e) == pytest.approx(expected)
    assert ssim(o, e) < -0.99


def test_ssim_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        ssim(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        ssim(np.zeros((1, 1)), np.zeros((1, 1)))


def test_capacity_values():
    assert capacity_bpp(30_412_800, 30_412_800) == 1.0
    assert capacity_bpp(0, 100) == 0.0
    assert capacity_bpp(50, 100) == 0.5
    with pytest.raises(QrstegError):
        capacity_bpp(1, 0)


def test_quality_report_csv(tmp_path):
    report = QualityReport(embedded_bits=32)
    a = frame_from(np.full((4, 4), 50))
    b = frame_from(np.full((4, 4), 52))
    report.add_frame(a, b)
    report.add_frame(a, a)  # identical frame -> sentinel, excluded from averages
    assert report.luma_pixels == 32
    assert report.average_psnr() == pytest.approx(psnr_from_mse(report.frame_mse[0]))
    assert report.frame_mse[1] == 0.0
    rows = report.csv_rows()
    assert [row[0] for row in rows] == [0, 1, "average", "capacity_bpp"]
    write_csv(tmp_path / "report.csv", QualityReport.CSV_HEADER, rows)
    text = (tmp_path / "report.csv").read_bytes().decode()
    assert text.startswith("frame,mse,psnr_db,mse_luma,psnr_luma_db\r\n")
    assert "identical" in text
    assert "average" in text
    assert "capacity_bpp,1.000000" in text


def test_add_frame_matches_float_formula_on_clipped_cover():
    # Luma at 0, 1, 254 and 255 moves under the [2, 253] clip; 2 and 253 do not.
    rng = np.random.default_rng(12)
    y = rng.integers(0, 256, (16, 16))
    y[0, :6] = [0, 1, 2, 253, 254, 255]
    cover = frame_from(y, rng.integers(0, 256, (8, 8)), rng.integers(0, 256, (8, 8)))
    stego = frame_from(
        rng.integers(0, 256, (16, 16)), rng.integers(0, 256, (8, 8)), rng.integers(0, 256, (8, 8))
    )
    report = QualityReport()
    report.add_frame(cover, stego)

    cy, cu, cv, sy, su, sv = (
        plane.astype(np.float64) for plane in (cover.y, cover.u, cover.v, stego.y, stego.u, stego.v)
    )
    ref_y = np.clip(cy, 2, 253)
    sse_y = ((ref_y - sy) ** 2).sum()
    sse = sse_y + ((cu - su) ** 2).sum() + ((cv - sv) ** 2).sum()
    samples = 256 + 64 + 64
    assert report.frame_mse == [sse / samples]
    assert report.frame_mse_luma == [sse_y / 256]
    assert report.average_psnr() == psnr_from_mse(sse / samples)
    assert report.average_psnr(luma_only=True) == psnr_from_mse(sse_y / 256)
    assert report.clip_mse == [((cy - ref_y) ** 2).sum() / samples]
    assert report.clip_mse[0] > 0
    assert report.luma_pixels == 256

    # A cover that is already clipped scores the same.
    clipped = QualityReport()
    clipped.add_frame(frame_from(ref_y, cover.u, cover.v), stego)
    assert clipped.frame_mse == report.frame_mse and clipped.frame_mse_luma == report.frame_mse_luma


def test_squared_error_sums_past_int32():
    # 256x256 luma differing by 255 everywhere: SSE 65536 * 65025 = 4.26e9 > 2^31.
    black = frame_from(np.zeros((256, 256)), np.zeros((128, 128)), np.zeros((128, 128)))
    white = frame_from(np.full((256, 256), 255), np.full((128, 128), 255), np.full((128, 128), 255))
    assert mse(black, white) == 65025.0
    report = QualityReport()
    report.add_frame(black, white)  # luma reference clips to 2: SSE 65536 * 253^2 = 4.19e9
    assert report.frame_mse_luma == [253.0**2]
    assert report.clip_mse == [4.0 * 65536 / (65536 + 2 * 16384)]


def formula_ssim(original, recovered):
    """Global SSIM written straight from the formula: ssim must equal it exactly."""
    o = original.astype(np.float64)
    e = recovered.astype(np.float64)
    mu_o = o.mean()
    mu_e = e.mean()
    var_o = ((o - mu_o) ** 2).mean()
    var_e = ((e - mu_e) ** 2).mean()
    cov = ((o - mu_o) * (e - mu_e)).mean()
    return float(
        (2 * mu_o * mu_e + C1)
        * (2 * cov + C2)
        / ((mu_o**2 + mu_e**2 + C1) * (var_o + var_e + C2))
    )


def ssim_cases():
    rng = np.random.default_rng(61)
    bilevel = [rng.integers(0, 2, (144, 176)).astype(np.uint8) * np.uint8(255) for _ in range(3)]
    gray = [rng.integers(0, 256, (31, 17)).astype(np.uint8) for _ in range(3)]
    constant = [np.full((8, 8), v, dtype=np.uint8) for v in (0, 128, 255)]
    for group in (bilevel, gray, constant):
        for a in group:
            for b in group:
                yield a, b
    yield bilevel[0], np.zeros_like(bilevel[0])
    yield constant[0], rng.integers(0, 2, (8, 8)).astype(np.uint8) * np.uint8(255)


def test_ssim_equals_the_formula_exactly():
    for original, recovered in ssim_cases():
        assert ssim(original, recovered) == formula_ssim(original, recovered)


def test_ssim_reference_scores_equal_one_shot_ssim():
    cases = list(ssim_cases())
    for original in {id(o): o for o, _ in cases}.values():
        reference = SsimReference(original)
        for _, recovered in cases:
            if recovered.shape == original.shape:
                assert reference.score(recovered) == formula_ssim(original, recovered)


def test_ssim_reference_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        SsimReference(np.zeros((1, 1)))
    with pytest.raises(ShapeError):
        SsimReference(np.zeros((2, 2))).score(np.zeros((2, 3)))
