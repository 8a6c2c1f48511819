"""Reference detector placements and a log-log slope fit for the detector tests.

`bipartite_presets` mixes spacelike pairs (exact zero signal expected), pairs
with B inside A's future cone (nonzero signal), and one truncated-Gaussian pair
whose compact supports remain spacelike; `power_fit_slope` reads a power law's
exponent off its samples.
"""
import numpy as np

from causalq.detectors import DetectorSpec, detector, gaussian_profile, point_detector


def bipartite_presets(f) -> list[dict]:
    """Reference A/B placements for the second-order signalling estimators."""
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    ground = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    mid = f.sites // 2
    out = []

    def entry(tag, a, b, rho_a, spacelike_flag):
        out.append({"tag": tag, "a": a, "b": b, "rho_a": rho_a,
                    "rho_b": ground, "spacelike": spacelike_flag})

    entry("spacelike_boxes",
          detector("A", 0.0, 0.7, 2, 5, 2, 5),
          detector("B", 0.0, 0.9, 2, 5, mid, mid + 3), plus, True)
    entry("spacelike_gapped",
          detector("A", 1.3, 0.5, 3, 6, 1, 4),
          detector("B", 0.8, 0.6, 2, 7, mid - 2, mid + 2), plus, True)
    entry("spacelike_points",
          point_detector("A", 0.9, 1.0, 2, 6, 0),
          point_detector("B", 0.4, 1.0, 3, 7, mid), plus, True)
    entry("spacelike_wide",
          detector("A", 0.6, 0.8, 1, 8, 0, 6),
          detector("B", 1.1, 0.8, 1, 8, mid - 1, mid + 5), plus, True)
    entry("spacelike_gauss",
          DetectorSpec("A", 0.5, 0.7, gaussian_profile(4, 0.8, cut=3.0),
                       gaussian_profile(4, 0.8, cut=3.0)),
          DetectorSpec("B", 0.5, 0.7, gaussian_profile(4, 0.8, cut=3.0),
                       gaussian_profile(mid + 4, 0.8, cut=3.0)), plus, True)
    entry("timelike_cone",
          detector("A", 0.0, 0.7, 2, 4, 10, 12),
          detector("B", 0.0, 0.9, 10, 13, 8, 14), plus, False)
    entry("timelike_gapped",
          detector("A", 1.1, 0.6, 2, 4, 10, 12),
          detector("B", 0.7, 0.8, 9, 14, 9, 13), plus, False)
    entry("timelike_points",
          point_detector("A", 0.0, 1.0, 2, 3, 10),
          point_detector("B", 0.9, 1.0, 8, 12, 11), plus, False)
    entry("timelike_excited",
          detector("A", 0.8, 0.5, 2, 5, 10, 11),
          detector("B", 1.3, 0.5, 12, 16, 6, 15),
          np.array([[0.3, 0.35], [0.35, 0.7]], dtype=complex), False)
    entry("null_edge",
          detector("A", 0.0, 0.9, 2, 3, 10, 10),
          detector("B", 0.5, 0.9, 6, 8, 13, 15), plus, False)
    return out


def power_fit_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])
