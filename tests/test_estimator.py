import pytest

from sql2text.estimator import (
    SqlToTextGenerator,
    TemplateInterpreter,
    check_paired_text,
    check_sql_list,
)
from sql2text.graphs import template_interpret
from sql2text.parser import parse

SQLS = ["SELECT a WHERE b > val0", "SELECT c", "SELECT COUNT d WHERE e = val0"]
TEXTS = [template_interpret(parse(s)) for s in SQLS]


def small_estimator(**kwargs):
    defaults = dict(word_dim=8, hidden=8, hop_size=1, epochs=2, batch_size=2, seed=0)
    defaults.update(kwargs)
    return SqlToTextGenerator(**defaults)


class TestParamsProtocol:
    def test_get_params_reflects_init(self):
        est = small_estimator(ge_method="supernode")
        params = est.get_params()
        assert params["ge_method"] == "supernode"
        assert params["word_dim"] == 8
        assert params["lr"] == 0.001

    def test_set_params_round_trip(self):
        est = small_estimator()
        est.set_params(hop_size=2, beam_size=3)
        assert est.hop_size == 2
        assert est.get_params()["beam_size"] == 3

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError) as err:
            small_estimator().set_params(bogus=1)
        assert "bogus" in str(err.value)

    def test_clone_via_params(self):
        est = small_estimator(hop_size=2)
        clone = SqlToTextGenerator(**est.get_params())
        assert clone.get_params() == est.get_params()

    def test_repr_shows_params(self):
        assert "hop_size=1" in repr(small_estimator())


class TestValidation:
    def test_rejects_single_string(self):
        with pytest.raises(ValueError):
            check_sql_list("SELECT a")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_sql_list([])

    def test_unparseable_entry_named_by_index(self):
        with pytest.raises(ValueError) as err:
            check_sql_list(["SELECT a", "SELECT WHERE"])
        assert "X[1]" in str(err.value)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_paired_text(SQLS, TEXTS[:2])

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError) as err:
            check_paired_text(["SELECT a"], ["  "])
        assert "y[0]" in str(err.value)


class TestFitPredict:
    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            small_estimator().predict(SQLS)

    def test_fit_returns_self_and_predicts(self):
        est = small_estimator()
        assert est.fit(SQLS, TEXTS) is est
        out = est.predict(SQLS)
        assert len(out) == 3
        assert all(isinstance(o, str) for o in out)

    def test_score_in_unit_interval(self):
        est = small_estimator().fit(SQLS, TEXTS)
        score = est.score(SQLS, TEXTS)
        assert 0.0 <= score <= 1.0

    def test_save_and_reload(self, tmp_path):
        est = small_estimator().fit(SQLS, TEXTS)
        path = tmp_path / "model.ckpt"
        est.save(path)
        loaded = SqlToTextGenerator.from_checkpoint(path)
        assert loaded.predict(SQLS) == est.predict(SQLS)
        assert loaded.get_params()["word_dim"] == 8

    def test_fit_with_dev_split(self):
        est = small_estimator(epochs=2)
        est.fit(SQLS, TEXTS, dev_X=SQLS[:1], dev_y=TEXTS[:1])
        assert hasattr(est, "metrics_")
        assert est.metrics_[0].dev_bleu is not None

    @pytest.mark.parametrize("alpha", [-0.5, float("nan"), float("inf")])
    def test_fit_rejects_bad_length_norm_alpha(self, alpha):
        with pytest.raises(ValueError, match="length_norm_alpha"):
            small_estimator(length_norm_alpha=alpha).fit(SQLS, TEXTS)


class TestTemplateInterpreter:
    def test_predict_matches_rule_mapping(self):
        baseline = TemplateInterpreter().fit()
        assert baseline.predict(SQLS) == TEXTS

    def test_perfect_score_against_own_output(self):
        baseline = TemplateInterpreter()
        long_sqls = [
            "SELECT company WHERE assets > val0 AND sales > val0 AND industry <= val1",
        ]
        refs = [template_interpret(parse(s)) for s in long_sqls]
        assert baseline.score(long_sqls, refs) == 1.0

    def test_get_params_empty(self):
        assert TemplateInterpreter().get_params() == {}
