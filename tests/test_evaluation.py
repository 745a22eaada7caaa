import numpy as np
import pytest

from riskcast import (
    DataError,
    NumericalError,
    SeededRng,
    compare_models,
    compute_accuracy,
    compute_mse,
    compute_r2,
    evaluate_predictions,
    mse_loss,
)
from riskcast.evaluation import (
    EvalReport,
    comparison_csv,
    comparison_table,
)


class TestComputeMse:
    def test_perfect_predictions(self):
        assert compute_mse([0.1, 0.9], [0.1, 0.9]) == 0.0

    def test_summation_example(self):
        assert compute_mse([1.0, 2.0], [0.0, 2.0]) == 0.5

    def test_identical_to_training_loss(self):
        rng = SeededRng(1)
        y, yhat = rng.normals(50), rng.normals(50)
        assert compute_mse(y, yhat) == mse_loss(y, yhat)[0]

    def test_contract_errors(self):
        with pytest.raises(DataError):
            compute_mse([], [])


class TestComputeAccuracy:
    def test_exact_match_is_one(self):
        y = np.array([0.2, 0.8, 0.4])
        assert compute_accuracy(y, y) == 1.0

    def test_enumerated_label_example(self):
        assert compute_accuracy([0.2, 0.8], [0.6, 0.9]) == 0.5

    def test_same_class_side_ignores_magnitudes(self):
        assert compute_accuracy([0.1, 0.2, 0.3], [0.49, 0.01, 0.37]) == 1.0

    def test_invariant_to_monotone_transforms_preserving_the_side(self):
        rng = SeededRng(2)
        y = rng.uniforms(200, 0.0, 1.0)
        yhat = rng.uniforms(200, 0.0, 1.0)
        base = compute_accuracy(y, yhat)
        squeezed = 0.5 + 0.4 * (yhat - 0.5)  # monotone, keeps the 0.5 side
        assert compute_accuracy(y, squeezed) == base

    def test_threshold_recorded_in_reports(self):
        report = evaluate_predictions([0.2, 0.8, 0.3], [0.1, 0.9, 0.2], threshold=0.6)
        assert report.threshold == 0.6


class TestComputeR2:
    def test_perfect_prediction(self):
        assert compute_r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_sum_of_squares_example(self):
        assert compute_r2([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 0.0

    def test_mean_predictor_scores_zero(self):
        rng = SeededRng(3)
        y = rng.normals(40, 1.0, 2.0)
        yhat = np.full(40, float(np.mean(y)))
        assert abs(compute_r2(y, yhat)) < 1e-12

    def test_zero_variance_raises_instead_of_nan(self):
        with pytest.raises(NumericalError):
            compute_r2([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_needs_two_samples(self):
        with pytest.raises(DataError):
            compute_r2([1.0], [1.0])


class TestMetricBruteforceAgreement:
    def test_thousand_random_vectors(self):
        rng = SeededRng(4)
        for _ in range(50):
            n = 2 + rng.randint(40)
            y = rng.uniforms(n, 0.0, 1.0)
            yhat = rng.uniforms(n, -0.2, 1.2)
            mse_bf = sum((a - b) ** 2 for a, b in zip(y, yhat)) / n
            acc_bf = sum(((a > 0.5) == (b > 0.5)) for a, b in zip(y, yhat)) / n
            mean = sum(y) / n
            ss_tot = sum((a - mean) ** 2 for a in y)
            r2_bf = 1.0 - sum((a - b) ** 2 for a, b in zip(y, yhat)) / ss_tot
            assert abs(compute_mse(y, yhat) - mse_bf) < 1e-12
            assert abs(compute_accuracy(y, yhat) - acc_bf) < 1e-12
            assert abs(compute_r2(y, yhat) - r2_bf) < 1e-12


def _report(mse, acc, r2, n=100, tau=0.5):
    return EvalReport(mse=mse, accuracy=acc, r2=r2, n=n, threshold=tau)


class TestCompareModels:
    def test_reference_benchmark_ordering(self):
        """Hybrid row dominating on every metric wins all three columns."""
        comparison = compare_models([
            ("hybrid", _report(0.012, 0.924, 0.89)),
            ("linreg", _report(0.034, 0.781, 0.72)),
        ])
        assert comparison.winners == {"mse": "hybrid", "accuracy": "hybrid", "r2": "hybrid"}

    def test_identical_reports_tie_everywhere(self):
        r = _report(0.02, 0.9, 0.8)
        comparison = compare_models([("a", r), ("b", r)])
        assert set(comparison.winners.values()) == {"tie"}

    def test_winners_agree_with_bruteforce_argmin(self):
        rng = SeededRng(5)
        for _ in range(50):
            rows = [(f"m{i}", _report(rng.uniform(0, 1), rng.uniform(0, 1),
                                      rng.uniform(-1, 1)))
                    for i in range(2 + rng.randint(4))]
            comparison = compare_models(rows)
            best_mse = min(r.mse for _, r in rows)
            names = [name for name, r in rows if r.mse == best_mse]
            expected = names[0] if len(names) == 1 else "tie"
            assert comparison.winners["mse"] == expected

    def test_ordering_is_permutation_invariant_modulo_tiebreak(self):
        rows = [("a", _report(0.03, 0.7, 0.5)), ("b", _report(0.01, 0.9, 0.8))]
        fwd = compare_models(rows)
        rev = compare_models(list(reversed(rows)))
        assert fwd.winners == rev.winners

    def test_mismatched_sample_counts_rejected(self):
        with pytest.raises(DataError):
            compare_models([("a", _report(0.1, 0.5, 0.2, n=10)),
                            ("b", _report(0.1, 0.5, 0.2, n=11))])

    def test_needs_two_rows(self):
        with pytest.raises(DataError):
            compare_models([("only", _report(0.1, 0.5, 0.2))])


class TestRendering:
    def test_table_layout(self):
        comparison = compare_models([
            ("hybrid", _report(0.012, 0.924, 0.89)),
            ("linreg", _report(0.034, 0.781, 0.72)),
        ])
        table = comparison_table(comparison)
        lines = table.splitlines()
        assert lines[0].split() == ["model", "mse", "accuracy", "r2", "n"]
        assert "winner mse: hybrid" in table
        assert "winner accuracy: hybrid" in table
        assert "winner r2: hybrid" in table

    def test_csv_has_header_plus_one_row_per_model(self):
        comparison = compare_models([
            ("hybrid", _report(0.012, 0.924, 0.89)),
            ("linreg", _report(0.034, 0.781, 0.72)),
        ])
        lines = comparison_csv(comparison.rows).strip().splitlines()
        assert lines[0] == "model,mse,accuracy,r2"
        assert len(lines) == 3
        name, mse, acc, r2 = lines[1].split(",")
        assert name == "hybrid" and float(mse) == 0.012

    def test_single_report_csv(self):
        text = comparison_csv([("m", _report(0.5, 0.75, 0.25))])
        assert text.splitlines()[0] == "model,mse,accuracy,r2"
        assert text.splitlines()[1].startswith("m,0.5,")
