"""Fixed-seed replay of the sensing experiments, of the matrix-valued SE
solvers followed by their AMP runs, and of the default tensor batteries.

Each case reduces its outputs to a short list of floats and compares it with
the values recorded in ``EXPECTED`` at relative tolerance 1e-12. A refactor
that claims unchanged outputs must pass here untouched; a change that moves
the RNG consumption or the order of the arithmetic re-records the values and
says why. Running this file prints the current values of the cases named on
its command line (of every case when none is named) in the layout of
``EXPECTED``; with ``--diff`` it prints each case's largest relative change
against ``EXPECTED`` instead.
"""

import numpy as np
import pytest

import amplab
from amplab.denoisers import residual_shift_denoiser, signal_residual_denoiser
from amplab.ensembles import EnsembleSpec, SignalSpec, sample_noise
from amplab.harness import ExperimentConfig, config_from_dict, run_experiment, tensor_checks

RTOL = 1e-12

_SENSING = {
    "fig1_local": {"experiment": "fig1_local", "M": 6, "N": 6, "n": 36, "m": 24},
    "fig2_spectral_analytic": {"experiment": "fig2_spectral", "M": 6, "N": 6, "n": 36,
                               "m": 24},
    "fig2_spectral_mc": {"experiment": "fig2_spectral", "M": 6, "N": 6, "n": 36, "m": 24,
                         "onsager_source": "mc", "mc_reps": 5},
    "fig3_aniso": {"experiment": "fig3_aniso", "n": 60, "m": 30, "signal_density": 0.2},
}


def _columns(arr):
    """Per column: the squared norm and the inner product with sin(1..rows)."""
    weights = np.sin(np.arange(1, arr.shape[0] + 1))
    return [v for col in arr.T for v in (col @ col, col @ weights)]


def _upper(cov):
    return list(cov[np.triu_indices(cov.shape[0])])


def _sensing(name):
    cfg = config_from_dict({"seeds": [3], "iterations": 3, "se_draws": 4,
                            "ensembles": ["gaussian", "rademacher"], **_SENSING[name]})
    records, summary = run_experiment(cfg)
    out = [r.mse for r in records]
    for key in ("se_predicted", "sigma_sq", "omega_sq"):
        out += summary[key]
    out += [summary.get("condition_number", 1.0)]
    counts = summary.get("sv_count_above_threshold", {})
    return out + [counts[ens] for ens in sorted(counts)]


def _symmetric():
    n, T = 120, 4
    u1 = amplab.RngStream(5).generator().standard_normal(n)
    f_seq = [amplab.soft_threshold_denoiser(0.5)] * (T - 1)
    cov, sched = amplab.se_symmetric(f_seq, u1, T, mc_samples=10, rng=amplab.RngStream(6))
    w = amplab.sample_wigner(EnsembleSpec("goe", n, n), amplab.RngStream(7))
    trace = amplab.run_symmetric_amp(
        amplab.SymmetricAmpProblem(W=w, u1=u1, f_seq=f_seq, onsager=sched), T)
    return _upper(cov.sigma[-1]) + _columns(trace.z) + _columns(trace.u)


def _asymmetric():
    m, n, T = 60, 100, 3
    theta = amplab.sample_signal(SignalSpec(kind="sparse", dims=n, density=0.3),
                                 amplab.RngStream(8, 1)).vector
    e = sample_noise(m, 0.2, amplab.RngStream(8, 2))
    f_seq = [residual_shift_denoiser(e)] * T
    g_seq = [signal_residual_denoiser(theta, amplab.soft_threshold_denoiser(0.5))] * T
    cov, sched = amplab.se_asymmetric(f_seq, g_seq, theta, T, m, mc_samples=10,
                                      rng=amplab.RngStream(9))
    w = amplab.sample_ginibre(EnsembleSpec("ginibre_iid", m, n), amplab.RngStream(10))
    trace = amplab.run_asymmetric_amp(
        amplab.RectAmpProblem(W=w, u1=theta, f_seq=f_seq, g_seq=g_seq, onsager=sched), T)
    return (_upper(cov.omega[-1]) + _upper(cov.sigma[-1]) + _columns(trace.z)
            + _columns(trace.v) + _columns(trace.y) + _columns(trace.u))


def _tensor_checks():
    report = tensor_checks(ExperimentConfig(experiment="tensor_checks", seeds=[]))
    out = []
    for battery in report["batteries"]:
        out += [battery["worst_relative"]] if "worst_relative" in battery else []
        correction = battery.get("non_gaussian_correction", {})
        out += [correction[law] for law in sorted(correction)]
    return out


CASES = {**{name: (lambda name=name: _sensing(name)) for name in _SENSING},
         "se_symmetric": _symmetric, "se_asymmetric": _asymmetric,
         "tensor_checks": _tensor_checks}

EXPECTED = {
    "fig1_local": [
        0.06615543205334876, 0.01749553552751049, 0.011090065515320473,
        0.08337913956682806, 0.02798298034812295, 0.013781239691870643,
        0.07009643834405628, 0.02220752256599108, 0.016613223167660084,
        0.44140291142389587, 0.10710436551971338, 0.03527099185261558,
        0.43944320342026694, 0.10514465751608441, 0.03331128384898662,
        0.024919834751490125, 1.0,
    ],
    "fig2_spectral_analytic": [
        0.2729213684002248, 0.25335312295565077, 0.24355496462673942,
        0.2948990966949738, 0.15190483564955867, 0.11894801829308513,
        0.33339821710339457, 0.19627709359719284, 0.1820521877267664,
        0.5914105834922734, 0.5020570336587209, 0.2963753483994182,
        0.5894508754886444, 0.5000973256550919, 0.29441564039578927,
        0.2730782815901496, 1.0, 1.0,
        3.0,
    ],
    "fig2_spectral_mc": [
        0.2729213684002248, 0.25164134789639186, 0.22852999007865607,
        0.2948990966949738, 0.15347687599990284, 0.11993156319038868,
        0.33339821710339457, 0.19627709359719284, 0.1820521877267664,
        0.5914105834922734, 0.5020570336587209, 0.2963753483994182,
        0.5894508754886444, 0.5000973256550919, 0.29441564039578927,
        0.2730782815901496, 1.0, 1.0,
        3.0,
    ],
    "fig3_aniso": [
        0.3902654129097742, 0.2627195035808264, 0.3921736794018064,
        0.16994473001999913, 0.1294747484730037, 0.14791593344467494,
        0.2163842949940988, 0.18568922212354919, 0.12706388710296476,
        0.5882937103871607, 0.5909674085585725, 0.4522303847907034,
        0.5861925868038426, 0.5888662849752544, 0.4501292612073853,
        0.36146861046031403, 3.944473285336346,
    ],
    "se_asymmetric": [
        0.366161042088107, 0.12911400100024129, 0.13492190717970926,
        0.13934445177417415, 0.2586679251055223, 0.12038803624128125,
        0.11987438265860464, 0.18710188593179994, 0.11399048394533853,
        0.14708805006447007, 0.40396665168518836, 0.16691961059732266,
        0.17272751677679063, 0.2964735347026036, 0.15819364583836262,
        0.2249074955288813, 15.510230288979056, -4.591663259537041,
        16.753917843301057, -2.393562349762133, 10.408175246141784,
        -2.0550915328288215, 19.87023330502726, -4.924264535325101,
        22.531159322937516, -2.7261636255501926, 14.068579988771955,
        -2.38769280861688, 33.44834147502263, -4.637553862340019,
        34.82508816048587, 1.1407763301887175, 26.825623004218123,
        -1.893403281943756, 21.969662525286417, 0.6762173419227595,
        14.627920788472675, 3.304999866682869, 12.590909129351925,
        0.5718275633138123, 10.651431395560975, 1.7706958728123066,
    ],
    "se_symmetric": [
        0.9508149661559446, -0.05949077817310884, 0.0061483193894017775,
        -0.0007110219773369796, 0.42245108279587995, -0.0192266688494845,
        0.0002894572374134834, 0.09837936818423405, -0.00018461419384015448,
        0.0036141102191511836, 138.55211486538735, 7.273278709848595,
        54.27618114624693, -1.195095604516046, 16.379938115833806,
        -1.8209788431905443, 1.4829430043971028, -1.116783141325166,
        114.09779593871336, -5.218113154018289, 63.076344718224746,
        3.7429311407937558, 13.689271441101127, -1.8208988564614,
        1.1979515636294378, -0.5590125556676576,
    ],
    "tensor_checks": [
        7.105427357601002e-15, 2.0797690153094583e-15, 0.0,
        1.6217865735362857, 0.9730719441217713,
    ],
}


def largest_change(got, want):
    """(index, relative change |got - want| / |want|) of the value that moved
    most; a recorded 0.0 counts a change as inf, and no change as 0."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise ValueError(f"{got.size} values against {want.size} recorded")
    gap = np.abs(got - want)
    rel = np.divide(gap, np.abs(want), out=np.where(gap > 0, np.inf, 0.0), where=want != 0)
    i = int(np.argmax(rel))
    return i, float(rel[i])


@pytest.mark.parametrize("name", sorted(CASES))
def test_replay_matches_the_recorded_outputs(name):
    got = np.asarray(CASES[name](), dtype=np.float64)
    np.testing.assert_allclose(got, EXPECTED[name], rtol=RTOL, atol=0)


def test_largest_change_reads_relative_to_the_recorded_value():
    assert largest_change([1.0, 2.2, 0.0], [1.0, 2.0, 0.0]) == (1, pytest.approx(0.1))
    assert largest_change([1.0, 1e-9], [1.0, 0.0]) == (1, np.inf)
    assert largest_change([3.0], [3.0]) == (0, 0.0)


if __name__ == "__main__":
    # Prints the named cases' current values (every case when none is named)
    # in the layout of EXPECTED, for a re-record of just the cases a change
    # moves: PYTHONPATH=src python tests/test_replay.py [case ...]
    # With --diff it prints instead each case's largest relative change
    # against EXPECTED, to report how far a re-record moved it:
    # PYTHONPATH=src python tests/test_replay.py --diff [case ...]
    import sys

    args = sys.argv[1:]
    diff = "--diff" in args
    names = [arg for arg in args if arg != "--diff"] or sorted(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown case(s) {', '.join(unknown)}; cases: {', '.join(sorted(CASES))}")
    for name in names:
        got = [float(v) for v in CASES[name]()]
        if diff:
            i, rel = largest_change(got, EXPECTED[name])
            print(f"{name}: largest relative change {rel:.3e} at value {i} "
                  f"({EXPECTED[name][i]!r} -> {got[i]!r})")
            continue
        values = [repr(v) for v in got]
        print(f'    "{name}": [')
        for i in range(0, len(values), 3):
            print("        " + ", ".join(values[i:i + 3]) + ",")
        print("    ],")
