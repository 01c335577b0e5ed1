import json

import numpy as np
import pytest

import oracles
from covrep.cli import build_parser, main
from covrep.examples import write_corpus
from covrep.serialize import covrep_to_json, dump_json, instance_to_json
from covrep.examples import scalar_covrep
from covrep.product import ProductRep


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    write_corpus(path)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def _set_first_T_entry(value):
    def edit(data):
        data["T"][0][0][0] = value

    return edit


class TestValidate:
    def test_corpus_instance_passes(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "validate", corpus_dir / "g1-induced.json")
        assert code == 0
        assert "PASS" in out

    def test_bimodule_violation_exit_1_names_its_residual(self, corpus_dir, tmp_path, capsys):
        # T(f_0) gains an entry off sigma's blocks: the one-sided halves
        # measure the same residual, 1, as the relation over unit pairs
        data = json.loads((corpus_dir / "g1-induced.json").read_text())
        data["T"][0][0][2] = [1.0, 0.0]
        path = tmp_path / "bimodule.json"
        path.write_text(dump_json(data))
        code, out, _ = run(capsys, "validate", path, "--format", "json")
        assert code == 1
        [result] = json.loads(out)["results"]
        assert result["error"].startswith("BimoduleViolation") and "1.000e+00" in result["error"]

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, out, _ = run(capsys, "validate", bad)
        assert code == 2

    def test_negative_gram_exit_1_names_positivity(self, tmp_path, capsys):
        data = covrep_to_json(scalar_covrep(np.eye(2)))
        data["correspondence"]["gram"][0][0][0][0][0] = [-1.0, 0.0]
        path = tmp_path / "neg.json"
        path.write_text(dump_json(data))
        code, out, _ = run(capsys, "validate", path)
        assert code == 1
        assert "Positivity" in out

    @pytest.mark.parametrize(
        "field,value",
        [
            ("algebra", None),
            ("sigma", None),
            ("correspondence", None),
            ("T", None),
            (("sigma", "hilbert_dim"), "abc"),
            (("correspondence", "dim"), "q"),
        ],
        ids=["no-algebra", "no-sigma", "no-correspondence", "no-T", "hilbert-dim-abc", "dim-q"],
    )
    def test_malformed_instance_exit_2(self, tmp_path, capsys, field, value):
        # a missing field (value None) or a dimension that is not an integer
        data = covrep_to_json(scalar_covrep(np.eye(2)))
        if value is None:
            del data[field]
        else:
            data[field[0]][field[1]] = value
        path = tmp_path / "bad.json"
        path.write_text(dump_json(data))
        code, out, _ = run(capsys, "validate", path)
        assert code == 2
        assert "parse error" in out

    def test_product_instance_with_too_few_coordinates_exit_2(self, corpus_dir, tmp_path, capsys):
        data = json.loads((corpus_dir / "jordan-pair.json").read_text())
        data["T"] = data["T"][:1]
        path = tmp_path / "short.json"
        path.write_text(dump_json(data))
        code, out, _ = run(capsys, "validate", path)
        assert code == 2
        assert "parse error" in out

    def test_product_system_missing_flip_exit_2(self, corpus_dir, tmp_path, capsys):
        data = json.loads((corpus_dir / "jordan-pair.json").read_text())
        data["product_system"]["flips"] = {}
        path = tmp_path / "noflip.json"
        path.write_text(dump_json(data))
        code, out, _ = run(capsys, "validate", path)
        assert code == 2
        assert "parse error" in out and "'2,1'" in out

    @pytest.mark.parametrize(
        "name,field,value",
        [
            ("g1-induced", "T", 5),
            ("g1-induced", "meta", 5),
            ("g1-induced", "meta", [1, 2]),
            ("jordan-pair", ("T", 0), 5),
            ("jordan-pair", "meta", 5),
        ],
        ids=["covariant-T-5", "covariant-meta-5", "covariant-meta-list", "product-T-coordinate-5", "product-meta-5"],
    )
    def test_malformed_T_or_meta_exit_2(self, corpus_dir, tmp_path, capsys, name, field, value):
        data = json.loads((corpus_dir / f"{name}.json").read_text())
        if isinstance(field, tuple):
            data[field[0]][field[1]] = value
        else:
            data[field] = value
        path = tmp_path / "bad.json"
        path.write_text(dump_json(data))
        code, out, _ = run(capsys, "validate", path)
        assert code == 2
        assert "parse error" in out

    @pytest.mark.parametrize(
        "name,edit",
        [
            ("g1-induced", lambda d: d["algebra"].update(blocks=[])),
            ("g1-induced", lambda d: d["algebra"].update(blocks=[0])),
            ("jordan-pair", lambda d: d["product_system"].update(flips={"1,2": d["product_system"]["flips"]["2,1"]})),
            ("g1-induced", _set_first_T_entry([1.0, 0.0, 7.0])),
            ("g1-induced", _set_first_T_entry([10 ** 400, 0])),
            ("g1-induced", lambda d: d["sigma"]["images"].append(d["sigma"]["images"][0])),
            ("g1-induced", _set_first_T_entry(["1", "0"])),
        ],
        ids=["no-blocks", "block-0", "flip-1,2", "three-entry-scalar", "400-digit-entry",
             "extra-sigma-block", "numeric-strings"],
    )
    def test_malformed_structure_exit_2(self, corpus_dir, tmp_path, capsys, name, edit):
        data = json.loads((corpus_dir / f"{name}.json").read_text())
        edit(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "validate", path)
        assert code == 2
        assert "parse error" in out

    def test_non_star_representation_is_a_reported_fail(self, tmp_path, capsys):
        # sigma(1) an oblique idempotent: construction in sigma's own basis
        # refuses it, and validate reports the failure with its residual
        data = covrep_to_json(scalar_covrep(np.zeros((2, 2))))
        data["sigma"]["images"][0][0] = [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        path = tmp_path / "oblique.json"
        path.write_text(dump_json(data))
        code, out, _ = run(capsys, "validate", path)
        assert code == 1
        assert "FAIL (NotStarRepresentation" in out and "residual" in out

    def test_graph_kind_instance(self, tmp_path, capsys):
        path = tmp_path / "graph.json"
        path.write_text(
            json.dumps({"kind": "graph", "vertices": 3, "edges": [[0, 1], [1, 2]]})
        )
        code, out, _ = run(capsys, "validate", path)
        assert code == 0

    def test_multiple_paths_deterministic_order(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys,
            "validate",
            corpus_dir / "g1-induced.json",
            corpus_dir / "g2-induced.json",
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert [r["path"] for r in report["results"]] == [
            str(corpus_dir / "g1-induced.json"),
            str(corpus_dir / "g2-induced.json"),
        ]


class TestNonFiniteEntries:
    """NaN or Infinity anywhere in a matrix is an input error (exit 2) for
    every command that loads the instance, not a failed decomposition."""

    PLACES = {
        "T": lambda d: d["T"][0][0],
        "sigma": lambda d: d["sigma"]["images"][0][0][0],
        "gram": lambda d: d["correspondence"]["gram"][0][0][0][0],
    }

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("place", list(PLACES))
    @pytest.mark.parametrize("command", [["validate"], ["check", "isometric"], ["decompose"]], ids=str)
    def test_exit_2(self, corpus_dir, tmp_path, capsys, place, value, command):
        data = json.loads((corpus_dir / "g1-induced.json").read_text())
        self.PLACES[place](data)[0] = [value, 0.0]
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(data))
        argv = [command[0], path] + command[1:]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "non-finite" in out + err


class TestCheck:
    def test_g1_property_lines(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "check", corpus_dir / "g1-induced.json", "isometric", "concave", "analytic"
        )
        assert code == 0
        assert out.count("PASS") == 3
        assert "(vacuous)" in out  # concavity is vacuous for G1

    def test_unitary_not_analytic(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "check", corpus_dir / "scalar-unitary-3.json", "analytic")
        assert code == 1
        assert "FAIL" in out

    def test_jordan_doubly_commuting(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "check", corpus_dir / "jordan-pair.json", "doubly-commuting"
        )
        assert code == 0

    def test_doubly_commuting_evaluated_once(self, corpus_dir, capsys, monkeypatch):
        calls = []
        original = ProductRep.check_doubly_commuting
        monkeypatch.setattr(
            ProductRep, "check_doubly_commuting", lambda pr: calls.append(1) or original(pr)
        )
        code, _, _ = run(capsys, "check", corpus_dir / "jordan-pair.json", "doubly-commuting")
        assert code == 0 and len(calls) == 1

    def test_kind_mismatch_exit_2(self, corpus_dir, capsys):
        code, _, err = run(
            capsys, "check", corpus_dir / "g1-induced.json", "doubly-commuting"
        )
        assert code == 2
        assert "kind mismatch" in err

    def test_coordinatewise_property_on_tuple(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "check", corpus_dir / "two-color-path.json", "isometric", "analytic"
        )
        assert code == 0
        assert out.count("PASS") == 2

    def test_json_report_fields(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys,
            "check",
            corpus_dir / "g2-induced.json",
            "isometric",
            "--format",
            "json",
            "--tolerance",
            "1e-8",
        )
        report = json.loads(out)
        assert report["tolerance"] == 1e-8
        assert report["version"]
        assert report["instance"]["kind"] == "covariant_rep"
        assert report["checks"][0]["name"] == "isometric"


class TestDecompose:
    def test_g1_dims(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "decompose", corpus_dir / "g1-induced.json", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["decomposition"]["dims"] == {"W": 2, "H_u": 3, "H_inf": 0}

    def test_unitary_dims(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "decompose", corpus_dir / "scalar-unitary-3.json", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["decomposition"]["dims"] == {"W": 0, "H_u": 0, "H_inf": 3}

    def test_hypothesis_not_met_exit_3_but_computed(self, tmp_path, capsys):
        path = tmp_path / "diag.json"
        path.write_text(dump_json(covrep_to_json(scalar_covrep(np.diag([1.0, 2.0])))))
        code, out, _ = run(capsys, "decompose", path, "--format", "json")
        assert code == 3
        report = json.loads(out)
        assert report["decomposition"]["dims"]["H_inf"] == 2

    def test_product_rep_rejected(self, corpus_dir, capsys):
        code, _, err = run(capsys, "decompose", corpus_dir / "jordan-pair.json")
        assert code == 2


class TestVerify:
    def test_jordan_t24(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "verify", corpus_dir / "jordan-pair.json", "--theorem", "t24",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"]
        assert all(i["pass"] for i in report["report"]["evaluated"])

    def test_g2_muhly_solel(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "verify", corpus_dir / "g2-induced.json", "--theorem", "muhly-solel",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["report"]["dims"]["H2"] == 0

    def test_unitary_richter_hypothesis_not_met(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "verify", corpus_dir / "scalar-unitary-3.json", "--theorem", "richter"
        )
        assert code == 3

    def test_g1_w_half_muhly_solel_not_isometric(self, corpus_dir, capsys):
        code, _, err = run(
            capsys, "verify", corpus_dir / "g1-w-half.json", "--theorem", "muhly-solel"
        )
        assert code == 3
        assert "hypothesis" in err

    def test_kind_mismatch(self, corpus_dir, capsys):
        code, _, err = run(
            capsys, "verify", corpus_dir / "g1-induced.json", "--theorem", "t22"
        )
        assert code == 2

    def test_p21_and_t22_and_cd(self, corpus_dir, capsys):
        for name, theorem in [
            ("jordan-pair", "p21"),
            ("two-color-path", "t22"),
            ("g2-induced", "cd"),
            ("g2-induced", "mt1"),
        ]:
            code, out, _ = run(
                capsys, "verify", corpus_dir / f"{name}.json", "--theorem", theorem
            )
            assert code == 0, (name, theorem, out)


class TestReportRoundTrip:
    def test_rerun_on_embedded_instance_is_bit_identical(
        self, corpus_dir, tmp_path, capsys
    ):
        code, out1, _ = run(
            capsys, "verify", corpus_dir / "g2-induced.json", "--theorem", "mt1",
            "--format", "json", "--tolerance", "1e-9",
        )
        assert code == 0
        embedded = json.loads(out1)["instance"]
        path = tmp_path / "embedded.json"
        path.write_text(dump_json(embedded))
        code, out2, _ = run(
            capsys, "verify", path, "--theorem", "mt1", "--format", "json",
            "--tolerance", "1e-9",
        )
        assert code == 0
        assert out1 == out2


class TestToleranceResolution:
    def test_env_var_default(self, corpus_dir, capsys, monkeypatch):
        monkeypatch.setenv("COVREP_TOLERANCE", "1e-7")
        code, out, _ = run(
            capsys, "check", corpus_dir / "g1-induced.json", "isometric",
            "--format", "json",
        )
        assert json.loads(out)["tolerance"] == 1e-7

    def test_flag_overrides_env(self, corpus_dir, capsys, monkeypatch):
        monkeypatch.setenv("COVREP_TOLERANCE", "1e-7")
        code, out, _ = run(
            capsys, "check", corpus_dir / "g1-induced.json", "isometric",
            "--format", "json", "--tolerance", "1e-10",
        )
        assert json.loads(out)["tolerance"] == 1e-10

    def test_invalid_env_rejected(self, corpus_dir, capsys, monkeypatch):
        for value in ("zero", "nan", "inf"):
            monkeypatch.setenv("COVREP_TOLERANCE", value)
            code, out, err = run(capsys, "check", corpus_dir / "g1-w-half.json", "isometric")
            assert code == 2, value
            assert "PASS" not in out

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-9"])
    def test_invalid_flag_rejected(self, corpus_dir, capsys, value):
        # with inf the non-isometric g1-w-half used to PASS with exit 0
        code, out, err = run(
            capsys, "check", corpus_dir / "g1-w-half.json", "isometric", f"--tolerance={value}"
        )
        assert code == 2
        assert "PASS" not in out and "tolerance" in err

    def test_seed_recorded(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "check", corpus_dir / "g1-induced.json", "isometric",
            "--format", "json", "--seed", "42",
        )
        assert json.loads(out)["seed"] == 42


class TestCorpusCommand:
    def test_writes_all_instances(self, tmp_path, capsys):
        code, out, _ = run(capsys, "corpus", "-o", tmp_path / "c")
        assert code == 0
        names = sorted(p.name for p in (tmp_path / "c").glob("*.json"))
        assert names == [
            "g1-induced.json",
            "g1-w-half.json",
            "g2-induced.json",
            "jordan-pair.json",
            "scalar-unitary-3.json",
            "two-color-path.json",
        ]


class TestJsonLayout:
    """Corpus files and every JSON report on them are the stock encoder's
    bytes (``oracles.dump_json``)."""

    def test_corpus_files(self, corpus_dir, corpus):
        for name, inst in corpus.items():
            text = (corpus_dir / f"{name}.json").read_text()
            assert text == oracles.dump_json(instance_to_json(inst)), name
            assert text == oracles.dump_json(json.loads(text)), name

    def test_reports_on_the_corpus(self, corpus_dir, corpus, capsys):
        covariant = ("richter", "muhly-solel", "mt1", "cd")
        product = ("p21", "t22", "t24")
        for name, inst in corpus.items():
            path = corpus_dir / f"{name}.json"
            if isinstance(inst, ProductRep):
                argvs = [["check", path, "rep-relation", "doubly-commuting", "isometric"]]
                argvs += [["verify", path, "--theorem", t] for t in product]
            else:
                argvs = [["check", path, "isometric", "concave", "shimorin", "analytic"], ["decompose", path]]
                argvs += [["verify", path, "--theorem", t] for t in covariant]
            for argv in [["validate", path], *argvs]:
                code, out, _ = run(capsys, *argv, "--format", "json")
                # only a verifier whose hypothesis fails up front writes no report
                assert out or code == 3, argv
                assert out == (oracles.dump_json(json.loads(out)) if out else ""), argv


class TestParserReuse:
    def test_no_state_carries_between_calls(self, corpus_dir, capsys, monkeypatch):
        monkeypatch.delenv("COVREP_TOLERANCE", raising=False)
        g1 = corpus_dir / "g1-induced.json"
        argvs = [
            ["verify", g1, "--theorem", "mt1", "--format", "json", "--seed", "42", "--tolerance", "1e-7"],
            ["verify", g1, "--theorem", "cd", "--format", "json"],
            ["check", g1, "isometric", "--format", "json"],
        ]
        reports = []
        for argv in argvs:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            reports.append(json.loads(out))
        assert (reports[0]["seed"], reports[0]["tolerance"]) == (42, 1e-7)
        assert (reports[1]["seed"], reports[1]["tolerance"], reports[1]["theorem"]) == (None, 1e-9, "cd")
        assert reports[2]["seed"] is None and "theorem" not in reports[2]
        assert build_parser() is build_parser()
        # each namespace is the one a freshly built parser gives
        for argv in argvs:
            argv = [str(a) for a in argv]
            assert vars(build_parser().parse_args(argv)) == vars(build_parser.__wrapped__().parse_args(argv))
