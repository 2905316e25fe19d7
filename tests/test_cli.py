import collections
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import causalcrit
from causalcrit import fixtures, metrics
from causalcrit.cli import main
from causalcrit.fixtures import fixture_text
from causalcrit.io import load_model, parse_model_text

from oracles import brute_open_paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_clean_fixture_exits_zero(self, capsys):
        code, out, _ = run(capsys, "validate", "heavy-rain-reality")
        assert code == 0
        assert "no violations" in out

    def test_fixture_parsed_once_per_process(self, capsys, monkeypatch):
        parsed = []

        def counting_parse(text):
            parsed.append(text)
            return parse_model_text(text)

        monkeypatch.setattr(fixtures, "parse_model_text", counting_parse)
        fixtures.fixture.cache_clear()
        for _ in range(2):
            assert run(capsys, "validate", "friction-relation")[0] == 0
        assert len(parsed) == 1

    def test_cycle_injection_exits_one_and_names_cycle(self, capsys, tmp_path):
        payload = json.loads(fixture_text("heavy-rain-reality"))
        payload["edges"].append(["phi", "X"])
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert "cycle" in err and "phi" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 2

    def test_domain_violation_exits_one(self, capsys, tmp_path):
        payload = json.loads(fixture_text("heavy-rain-reality"))
        payload["metric"]["variable"] = "X"  # X has outgoing edges
        bad = tmp_path / "bad_metric.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        assert "[ii]" in out

    @pytest.mark.parametrize("layer", [2.7, "3", True, float("inf")])
    def test_non_integer_layer_is_usage_error(self, capsys, tmp_path, layer):
        payload = json.loads(fixture_text("friction-relation"))
        payload["context"][0]["layer"] = layer
        bad = tmp_path / "bad_layer.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, "validate", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("error: context[0].layer: expected an integer")


    def test_wrong_json_type_exits_two_naming_its_path(self, capsys, tmp_path):
        payload = json.loads(fixture_text("heavy-rain-reality"))
        payload["variables"][2]["codes"] = ["a", 1]
        bad = tmp_path / "bad_code.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, "effect", str(bad), "--do", "X=CP", "--target", "phi")
        assert (code, out) == (2, "")
        assert err == 'error: variables[2].codes[0]: expected a number, got "a"\n'

    @pytest.mark.parametrize("command", [
        ("validate",),
        ("indicators", "heavy-rain-model", "--set", "V1,V2,X"),
    ])
    def test_non_finite_cpd_cell_exits_one(self, capsys, tmp_path, command):
        payload = json.loads(fixture_text("heavy-rain-reality"))
        cpd = next(c for c in payload["cpds"] if c["child"] == "V1")
        cpd["table"] = [[float("nan"), 1.0]]
        bad = tmp_path / "nan_cell.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, command[0], str(bad), *command[1:])
        assert (code, out) == (1, "")
        assert err == "ValidationError: cpds[0]: CPD for 'V1': entries must be finite\n"


class TestAdjust:
    def test_heavy_rain_model_first_set(self, capsys):
        code, out, _ = run(capsys, "adjust", "heavy-rain-model", "-x", "X", "-y", "phi")
        assert code == 0
        assert out.splitlines()[0] == "{V2}"

    def test_disconnected_pair_empty_set(self, capsys, tmp_path):
        payload = json.loads(fixture_text("heavy-rain-reality"))
        payload["edges"] = [["V1", "X"], ["V3", "X"], ["V2", "phi"]]
        payload["cpds"] = [
            c for c in payload["cpds"] if c["child"] not in ("phi",)
        ] + [
            {
                "child": "phi",
                "parents": ["V2"],
                "table": [[0.6, 0.4], [0.1, 0.9]],
            }
        ]
        path = tmp_path / "disconnected.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run(capsys, "adjust", str(path), "-x", "X", "-y", "phi")
        assert code == 0
        assert out.splitlines()[0] == "{}"

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_non_positive_max_is_usage_error(self, capsys, count):
        code, out, err = run(
            capsys, "adjust", "heavy-rain-model", "-x", "X", "-y", "phi", "--max", count
        )
        assert code == 2
        assert out == ""
        assert f"--max must be > 0, got {count}" in err

    @pytest.mark.parametrize("pool", [",", ""])
    def test_empty_candidates_is_usage_error(self, capsys, pool):
        code, out, err = run(
            capsys, "adjust", "heavy-rain-model", "-x", "X", "-y", "phi", "--candidates", pool
        )
        assert (code, out) == (2, "")
        assert err == f"error: --candidates needs at least one node name, got {pool!r}\n"

    def test_max_past_sys_maxsize_lists_every_set(self, capsys):
        huge = "99999999999999999999999"
        code, out, _ = run(capsys, "adjust", "heavy-rain-model", "-x", "X", "-y", "phi", "--max", huge)
        every = run(capsys, "adjust", "heavy-rain-model", "-x", "X", "-y", "phi", "--max", "64")
        assert (code, out) == every[:2]
        assert code == 0 and len(out.splitlines()) > 1

    def test_default_friction_query(self, capsys):
        # The fixture's headline query with the whole 33-node pool and the
        # default --max 16: no set of fewer than 5 members is admissible, and
        # pa(x) takes the last slot. Captured from the plain subset scan.
        code, out, _ = run(
            capsys,
            "adjust",
            "friction-relation",
            "-x",
            "Coefficient of friction",
            "-y",
            "Aggregate of BTN_DT and STN_DT",
            "--format",
            "json",
        )
        assert code == 0
        common = ["Forward velocity of ego", "Tire type", "Wet grip"]
        planned = ["Planned acceleration", "Planned steering"]
        slip, angle = "Ego vehicle longitudinal wheel slip", "Ego vehicle slip angle"
        sixth_member = [
            "Air temperature",
            "Date and time of day",
            "Degree of Wetness",
            "Dew point",
            "Ego distance to next ISRL",
            "Ego road curvature",
            "Ego tire flash temp.",
            "Ego tire temperature",
        ]
        expected = [
            common + planned,
            *(common + planned + [extra] for extra in sixth_member),
            common + [slip, angle, "Road list"],
            common + planned + [slip],
            common + [slip, "Planned steering", "Road list"],
            common + planned + ["Ego vehicle mass"],
            common + planned + [angle],
            common + [angle, "Planned acceleration", "Road list"],
            common + [
                "Degree of Wetness",
                "Ego tire flash temp.",
                slip,
                angle,
                "Road surface contamination",
                "Road surface degradation",
                "Road surface material",
                "Road surface roughness",
                "Tire pressure",
                "Winter slipperiness",
            ],
        ]
        assert json.loads(out)["adjustment_sets"] == [sorted(s) for s in expected]

    def test_friction_scoped_candidates(self, capsys, friction_scan):
        from causalcrit.fixtures import FRICTION_MEASURABLE_POOL

        code, out, _ = run(
            capsys,
            "adjust",
            "friction-relation",
            "-x",
            "Coefficient of friction",
            "-y",
            "Aggregate of BTN_DT and STN_DT",
            "--max",
            "8192",
            "--candidates",
            ",".join(FRICTION_MEASURABLE_POOL),
            "--format",
            "json",
        )
        assert code == 0
        sets = json.loads(out)["adjustment_sets"]
        assert sets == [sorted(s) for s in friction_scan]
        assert len(sets) == 129
        from causalcrit.fixtures import FRICTION_ADJUSTMENT_SET

        assert sorted(FRICTION_ADJUSTMENT_SET) in sets


class TestEffect:
    def test_inadmissible_set_names_open_path(self, capsys):
        # X <-> W, W -> phi, X -> phi: the empty set leaves X <-> W -> phi.
        data = Path(__file__).parent / "data" / "confounded_pair.json"
        code, out, err = run(
            capsys, "effect", str(data), "--do", "X=b", "--target", "phi",
            "--route", "backdoor",
        )
        assert (code, out) == (1, "")
        assert err.startswith("NotAdmissible: ")
        quoted = err.split("back-door path ", 1)[1].rsplit(" open", 1)[0]
        model = load_model(data)[1]
        assert quoted in brute_open_paths(model.structure, "X", "phi", (), backdoor=True)
        assert quoted == "X <-> W -> phi"

    def test_do_cp_expectation(self, capsys):
        code, out, _ = run(
            capsys, "effect", "heavy-rain-reality",
            "--do", "X=CP", "--target", "phi", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["expectation"] == pytest.approx(0.6, abs=1e-9)

    def test_empty_do_is_observational(self, capsys):
        code, out, _ = run(
            capsys, "effect", "heavy-rain-reality",
            "--target", "phi", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["route"] == "observational"
        assert payload["expectation"] == pytest.approx(0.534, abs=1e-9)

    def test_repeated_do_node_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "effect", "heavy-rain-reality",
            "--do", "X=CP,X=notCP", "--target", "phi", "--format", "json",
        )
        assert (code, out) == (2, "")
        assert "'X' is assigned twice" in err

    @pytest.mark.parametrize("route", ["auto", "truncated", "parents"])
    def test_adjust_set_off_backdoor_is_usage_error(self, capsys, tmp_path, route):
        # Checked before the model file is read: the file does not exist.
        code, out, err = run(
            capsys, "effect", str(tmp_path / "missing.json"), "--do", "X=CP",
            "--target", "phi", "--route", route, "--adjust-set", "V2",
        )
        assert (code, out, err) == (2, "", "error: --adjust-set needs --route backdoor\n")

    def test_all_routes_agree(self, capsys):
        results = {}
        for route, extra in (
            ("truncated", []),
            ("parents", []),
            ("backdoor", ["--adjust-set", "V2"]),
        ):
            _, out, _ = run(
                capsys, "effect", "heavy-rain-model",
                "--do", "X=CP", "--target", "phi",
                "--route", route, *extra, "--format", "json",
            )
            results[route] = json.loads(out)["expectation"]
        values = list(results.values())
        assert max(values) - min(values) < 1e-9

    def test_repeated_adjustment_member_counted_once(self, capsys):
        def effect(adjust_set):
            return run(
                capsys, "effect", "heavy-rain-reality", "--do", "X=CP", "--target",
                "phi", "--route", "backdoor", "--adjust-set", adjust_set,
                "--format", "json",
            )

        code, out, _ = effect("V1,V1")
        assert code == 0
        assert json.loads(out)["route"] == "backdoor:['V1']"
        assert out == effect("V1")[1]

    def test_auto_falls_back_to_backdoor_like_ace(self, capsys, tmp_path):
        # X <-> W, W -> phi, X -> phi: the truncated and parent routes do not
        # apply; the one auto rule finds the back-door set {W} for both the
        # effect command and the ACE indicator.
        payload = json.loads(fixture_text("heavy-rain-model"))
        payload["variables"] = [
            v for v in payload["variables"] if v["name"] != "V1"
        ]
        for v in payload["variables"]:
            if v["name"] == "V2":
                v["name"] = "W"
        payload["edges"] = [["W", "phi"], ["X", "phi"]]
        payload["bidirected"] = [["W", "X"]]
        payload["cpds"] = [
            {"child": "W", "parents": [], "table": [[0.6, 0.4]]},
            {"child": "X", "parents": [], "table": [[0.3, 0.7]]},
            {"child": "phi", "parents": ["W", "X"],
             "table": [[0.6, 0.4], [0.8, 0.2], [0.1, 0.9], [0.3, 0.7]]},
        ]
        path = tmp_path / "confounded.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        expectations = {}
        for label in ("CP", "notCP"):
            code, out, err = run(
                capsys, "effect", str(path), "--do", f"X={label}",
                "--target", "phi", "--format", "json",
            )
            assert code == 0, err
            result = json.loads(out)
            assert result["route"] == "backdoor:['W']"
            expectations[label] = result["expectation"]
        code, out, _ = run(capsys, "indicators", str(path), str(path), "--format", "json")
        assert code == 0
        ace = next(r for r in json.loads(out)["reports"] if r["name"] == "ACE")
        assert ace["metadata"]["route"] == "backdoor:['W']"
        assert ace["value"] == pytest.approx(0.2, abs=1e-12)
        assert expectations["CP"] - expectations["notCP"] == pytest.approx(
            ace["value"], abs=1e-12
        )


class TestIndicators:
    def test_indicator_table_values(self, capsys):
        code, out, _ = run(
            capsys, "indicators", "heavy-rain-reality", "heavy-rain-model",
            "--set", "V1,V2,X", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        by_name = {}
        for r in payload["reports"]:
            by_name.setdefault(r["name"], r)
        assert by_name["ACE"]["value"] == pytest.approx(0.2, abs=1e-9)
        assert by_name["RCE"]["value"] == pytest.approx(1.5, abs=1e-9)
        assert by_name["rho1"]["value"] == pytest.approx(0.0, abs=1e-12)
        assert by_name["rho2"]["value"] == pytest.approx(0.0141, abs=1e-4)

    def test_bits_flag_rescales(self, capsys):
        import math

        values = {}
        for flag in ((), ("--bits",)):
            _, out, _ = run(
                capsys, "indicators", "heavy-rain-reality", "heavy-rain-model",
                "--set", "V1,V2,X", *flag, "--format", "json",
            )
            payload = json.loads(out)
            rho2 = next(r for r in payload["reports"] if r["name"] == "rho2")
            values[payload["log_base"]] = rho2["value"]
        assert values["bits"] == pytest.approx(values["nats"] / math.log(2), abs=1e-12)

    def test_identical_pair_all_rho_zero(self, capsys):
        _, out, _ = run(
            capsys, "indicators", "heavy-rain-reality", "heavy-rain-reality",
            "--set", "V1,V2,X", "--format", "json",
        )
        payload = json.loads(out)
        for r in payload["reports"]:
            if r["name"].startswith("rho"):
                assert r["value"] == pytest.approx(0.0, abs=1e-12)

    def test_reestimation_pipeline(self, capsys, tmp_path):
        ref_csv = tmp_path / "ref.csv"
        cand_csv = tmp_path / "cand.csv"
        run(capsys, "sample", "heavy-rain-reality", "-n", "40000",
            "--seed", "5", "-o", str(ref_csv))
        run(capsys, "sample", "heavy-rain-model", "-n", "40000",
            "--seed", "6", "-o", str(cand_csv))
        code, out, _ = run(
            capsys, "indicators", "heavy-rain-reality", "heavy-rain-model",
            "--set", "V1,V2,X", "--data", str(ref_csv), str(cand_csv),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        ace_ref = next(
            r for r in payload["reports"]
            if r["name"] == "ACE" and r["metadata"]["role"] == "reference"
        )
        assert ace_ref["value"] == pytest.approx(0.2, abs=0.05)

    @pytest.mark.parametrize("node_set", [",", ""])
    def test_empty_set_is_usage_error(self, capsys, node_set):
        code, out, err = run(
            capsys, "indicators", "heavy-rain-reality", "heavy-rain-model", "--set", node_set
        )
        assert (code, out) == (2, "")
        assert err == f"error: --set needs at least one node name, got {node_set!r}\n"

    def test_partial_data_names_sigma_scope(self, capsys, tmp_path):
        # Without V3 the reference re-estimates no CPD for X. Its effect rows
        # clamp X and answer; sigma's P(phi) is the first joint refused.
        ref_csv, cand_csv = tmp_path / "ref.csv", tmp_path / "cand.csv"
        run(capsys, "sample", "heavy-rain-reality", "-n", "5000", "--seed", "3", "-o", str(ref_csv))
        run(capsys, "sample", "heavy-rain-model", "-n", "5000", "--seed", "4", "-o", str(cand_csv))
        rows = [line.split(",") for line in ref_csv.read_text(encoding="utf-8").splitlines()]
        keep = [i for i, column in enumerate(rows[0]) if column != "V3"]
        ref_csv.write_text("".join(",".join(r[i] for i in keep) + "\n" for r in rows), encoding="utf-8")
        code, out, err = run(
            capsys, "indicators", "heavy-rain-reality", "heavy-rain-model",
            "--data", str(ref_csv), str(cand_csv), "--set", "V1,V2,X",
        )
        assert (code, out) == (1, "")
        assert err == "InsufficientInstantiation: need CPDs for ['V3', 'X'] to enumerate over ['phi']\n"

    def test_candidate_sigma_scope_refused_after_reference_checks(self, capsys, tmp_path):
        # The candidate lacks V3's CPD: its effect rows (X clamped) answer,
        # its P(phi) does not. One closure check over every scope asked of
        # the candidate would name them all, not ['phi'].
        payload = json.loads(fixture_text("heavy-rain-reality"))
        payload["cpds"] = [c for c in payload["cpds"] if c["child"] != "V3"]
        path = tmp_path / "no_v3.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(
            capsys, "indicators", "heavy-rain-model", str(path), "--set", "V1,V2,X"
        )
        assert (code, out) == (1, "")
        assert err == "InsufficientInstantiation: need CPDs for ['V3'] to enumerate over ['phi']\n"

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_exits_one(self, capsys, tmp_path, alpha):
        ref_csv, cand_csv = tmp_path / "ref.csv", tmp_path / "cand.csv"
        run(capsys, "sample", "heavy-rain-reality", "-n", "50", "-o", str(ref_csv))
        run(capsys, "sample", "heavy-rain-model", "-n", "50", "-o", str(cand_csv))
        code, out, err = run(
            capsys, "indicators", "heavy-rain-reality", "heavy-rain-model",
            "--data", str(ref_csv), str(cand_csv), "--alpha", alpha,
        )
        assert (code, out) == (1, "")
        assert err == f"ValidationError: smoothing must be finite and >= 0, got {alpha}\n"


    def test_rho3_restricted_without_set_is_usage_error(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        code, out, err = run(capsys, "indicators", missing, missing, "--rho3-restricted")
        assert (code, out, err) == (2, "", "error: --rho3-restricted needs --set\n")

    @pytest.mark.parametrize("alpha", ["0", "1"])
    def test_alpha_without_data_is_usage_error(self, capsys, tmp_path, alpha):
        missing = str(tmp_path / "missing.json")
        code, out, err = run(capsys, "indicators", missing, missing, "--alpha", alpha)
        assert (code, out, err) == (2, "", "error: --alpha needs --data\n")


class TestSample:
    def test_deterministic_output_file(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "sample", "heavy-rain-reality", "-n", "100", "--seed", "9", "-o", str(a))
        run(capsys, "sample", "heavy-rain-reality", "-n", "100", "--seed", "9", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    # The sampled CSV bytes are part of the contract: pinned by digest.
    @pytest.mark.parametrize(
        "model, seed, digest",
        [
            ("heavy-rain-reality", "3", "437732f29d4c2be67d012a113f499afa3f78accae504470f9ccd5a8895e53064"),
            ("heavy-rain-model", "4", "eca9e2639a24a1a6cddb4cf40f8344d954955fe3054592fbd8d6b90ce01c7d18"),
        ],
    )
    def test_output_bytes_pinned(self, capsys, tmp_path, model, seed, digest):
        path = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sample", model, "-n", "5000", "--seed", seed, "-o", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_negative_count_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        code, _, err = run(capsys, "sample", "heavy-rain-reality", "-n", "-3", "-o", str(path))
        assert code == 2
        assert "-n must be >= 0" in err
        code, _, err = run(
            capsys, "sample", "heavy-rain-reality", "-n", "3", "--seed", "-1", "-o", str(path)
        )
        assert code == 2
        assert "--seed must be >= 0" in err
        assert not path.exists()


class TestBadDatasetExitsTwo:
    def run_with_data(self, capsys, tmp_path, reference_bytes):
        ref, cand = tmp_path / "ref.csv", tmp_path / "cand.csv"
        ref.write_bytes(reference_bytes)
        run(capsys, "sample", "heavy-rain-model", "-n", "50", "-o", str(cand))
        return run(
            capsys, "indicators", "heavy-rain-reality", "heavy-rain-model",
            "--data", str(ref), str(cand),
        )

    def test_invalid_utf8(self, capsys, tmp_path):
        code, _, err = self.run_with_data(capsys, tmp_path, b"X,V2\nCP,Slow\n\xc3\x28,Slow\n")
        assert code == 2
        assert "not valid UTF-8" in err

    def test_duplicate_header_column(self, capsys, tmp_path):
        code, _, err = self.run_with_data(capsys, tmp_path, b"X,V1,X\nCP,Summer,CP\n")
        assert code == 2
        assert "'X' appears twice" in err


class TestMetrics:
    @staticmethod
    def write_inputs(tmp_path, decel=0.0):
        traj = tmp_path / "traj.txt"
        dt, v0 = 0.05, 20.0
        lines = []
        for k in range(81):
            t = k * dt
            x = v0 * t - 0.5 * decel * t * t
            lines.append(f"{t} {x} 0.0")
        traj.write_text("\n".join(lines), encoding="utf-8")
        field = tmp_path / "field.txt"
        cells = "\n".join("-8.0 5.0" for _ in range(20 * 20))
        field.write_text(f"20 20 -40.0 -40.0 8.0 8.0\n{cells}\n", encoding="utf-8")
        return traj, field

    def test_straight_line_all_zero(self, capsys, tmp_path):
        traj, field = self.write_inputs(tmp_path, decel=0.0)
        code, out, _ = run(
            capsys, "metrics", "--trajectories", str(traj),
            "--field", str(field), "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["btn_dt"] == 0.0
        assert payload["stn_dt"] == 0.0
        assert payload["aggregate"] == 0.0

    def test_braking_case_with_label(self, capsys, tmp_path):
        traj, field = self.write_inputs(tmp_path, decel=3.0)
        code, out, _ = run(
            capsys, "metrics", "--trajectories", str(traj), "--field", str(field),
            "--edges", "0.5", "--labels", "low,high", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["btn_dt"] == pytest.approx(0.375, abs=0.002)
        assert payload["label"] == "low"

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_sample_exits_one(self, capsys, tmp_path, bad):
        traj, field = self.write_inputs(tmp_path)
        lines = traj.read_text(encoding="utf-8").splitlines()
        lines[40] = f"2.0 {bad} 0.0"
        traj.write_text("\n".join(lines), encoding="utf-8")
        code, out, err = run(
            capsys, "metrics", "--trajectories", str(traj), "--field", str(field),
        )
        assert code == 1
        assert out == ""
        assert err == f"ValidationError: {traj}: t, x, y samples must be finite\n"

    def test_non_numeric_edge_is_usage_error(self, capsys, tmp_path):
        traj, field = self.write_inputs(tmp_path)
        code, out, err = run(
            capsys, "metrics", "--trajectories", str(traj), "--field", str(field),
            "--edges", "1,x",
        )
        assert code == 2
        assert out == ""
        assert err == "error: --edges: could not convert string to float: 'x'\n"

    def test_non_numeric_edge_checked_before_any_file(self, capsys, tmp_path):
        # The field misses the path and the trajectory file does not exist:
        # the --edges usage error still comes first.
        traj, _ = self.write_inputs(tmp_path)
        small = tmp_path / "small.txt"
        small.write_text("1 1 0 0 1 1\n-8 5\n", encoding="utf-8")
        for trajectories in (traj, tmp_path / "missing.txt"):
            code, out, err = run(
                capsys, "metrics", "--trajectories", str(trajectories), "--field", str(small),
                "--edges", "abc",
            )
            assert (code, out) == (2, "")
            assert err == "error: --edges: could not convert string to float: 'abc'\n"

    def test_far_point_on_tiny_cell_field_exits_one(self, capsys, tmp_path):
        traj, field = self.write_inputs(tmp_path)
        # The first sample lies 100 m from the one cell: its index overflows to inf.
        field.write_text("1 1 -100 0 1e-308 1e-308\n-8 5\n", encoding="utf-8")
        code, out, err = run(capsys, "metrics", "--trajectories", str(traj), "--field", str(field))
        assert (code, out) == (1, "")
        assert err == "FieldCoverageGap: point (0.0, 0.0) lies outside the field lattice\n"

    def test_blank_line_field_names_the_file_line(self, capsys, tmp_path):
        traj, field = self.write_inputs(tmp_path)
        field.write_text("2 1 0 0 1 1\n\n-8 5\n-8 x\n", encoding="utf-8")
        code, out, err = run(capsys, "metrics", "--trajectories", str(traj), "--field", str(field))
        assert (code, out) == (2, "")
        assert err == f"error: {field}:4: non-numeric value\n"

    def test_overflowing_trajectory_exits_one(self, capsys, tmp_path):
        _, field = self.write_inputs(tmp_path)
        traj = tmp_path / "overflow.txt"
        traj.write_text("".join(f"{k * 1e-200} {k * 1e-199} 0\n" for k in range(11)), encoding="utf-8")
        code, out, err = run(capsys, "metrics", "--trajectories", str(traj), "--field", str(field))
        assert (code, out) == (1, "")
        assert err == f"ValidationError: {traj}: the finite differences leave the float range: accelerations are not finite\n"

    def test_acceleration_error_names_the_second_file(self, capsys, tmp_path):
        traj, field = self.write_inputs(tmp_path)
        frozen = tmp_path / "frozen.txt"
        frozen.write_text("".join(f"{k * 0.05} 1.0 2.0\n" for k in range(81)), encoding="utf-8")
        code, out, err = run(
            capsys, "metrics", "--trajectories", str(traj), str(frozen), "--field", str(field),
        )
        assert (code, out) == (1, "")
        assert err == (
            f"DegenerateTrajectory: {frozen}: zero-length path segment; the tangent direction is undefined\n"
        )

    def test_one_acceleration_pass_and_lookup_per_trajectory(self, capsys, tmp_path, monkeypatch):
        traj, field = self.write_inputs(tmp_path, decel=3.0)
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(
            metrics, "_frame_accelerations", counted("accelerations", metrics._frame_accelerations)
        )
        monkeypatch.setattr(metrics.AccelField, "lookup", counted("lookup", metrics.AccelField.lookup))
        code, _, _ = run(capsys, "metrics", "--trajectories", str(traj), str(traj), "--field", str(field))
        assert code == 0
        assert calls == {"accelerations": 2, "lookup": 2}

    @pytest.mark.parametrize(
        "bins, expected_code, expected_err",
        [
            (["--edges", "1,0"], 1, "NonMonotoneEdges: bin edges must be strictly ascending\n"),
            (["--edges", "0.5", "--labels", "low"], 1, "ValidationError: need 2 labels for 1 edges\n"),
            (["--labels", "low,high"], 2, "error: --labels needs --edges\n"),
        ],
        ids=["descending-edges", "label-count", "labels-without-edges"],
    )
    def test_bin_arguments_checked_before_any_file(self, capsys, tmp_path, bins, expected_code, expected_err):
        # The field misses the path and the trajectory file does not exist:
        # the bin arguments are still checked first.
        traj, _ = self.write_inputs(tmp_path)
        small = tmp_path / "small.txt"
        small.write_text("1 1 0 0 1 1\n-8 5\n", encoding="utf-8")
        for trajectories in (traj, tmp_path / "missing.txt"):
            code, out, err = run(
                capsys, "metrics", "--trajectories", str(trajectories), "--field", str(small), *bins,
            )
            assert (code, out, err) == (expected_code, "", expected_err)

    def test_nan_edge_exits_one(self, capsys, tmp_path):
        traj, field = self.write_inputs(tmp_path)
        code, out, err = run(
            capsys, "metrics", "--trajectories", str(traj), "--field", str(field),
            "--edges", "nan",
        )
        assert code == 1
        assert out == ""
        assert err == "NonMonotoneEdges: bin edges must be finite\n"

    def test_arc_case_reaches_centripetal_ratio(self, capsys, tmp_path):
        v, radius, dt = 10.0, 50.0, 0.05
        lines = []
        for k in range(81):
            t = k * dt
            lines.append(
                f"{t} {radius * np.cos(v / radius * t)} {radius * np.sin(v / radius * t)}"
            )
        traj = tmp_path / "arc.txt"
        traj.write_text("\n".join(lines), encoding="utf-8")
        field = tmp_path / "field.txt"
        cells = "\n".join("-8.0 5.0" for _ in range(400))
        field.write_text(f"20 20 -80.0 -80.0 8.0 8.0\n{cells}\n", encoding="utf-8")
        _, out, _ = run(
            capsys, "metrics", "--trajectories", str(traj),
            "--field", str(field), "--format", "json",
        )
        payload = json.loads(out)
        assert payload["stn_dt"] == pytest.approx((v * v / radius) / 5.0, rel=0.02)


class TestSafetyPrinciple:
    def test_direct_suppression(self, capsys):
        code, out, _ = run(
            capsys, "sp", "heavy-rain-reality", "--sp", "X=notCP", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["delta_p_phenomenon"] == pytest.approx(-0.67, abs=1e-9)

    def test_repeated_node_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "sp", "heavy-rain-reality", "--sp", "V2=Slow,V2=Fast", "--format", "json",
        )
        assert (code, out) == (2, "")
        assert "'V2' is assigned twice" in err

    def test_off_target_principle_is_noted(self, capsys, tmp_path):
        # Z influences neither X nor phi: a note in the report, not an error.
        variable = {"domain": ["a", "b"], "codes": [0, 1], "unit": "1", "latent": False}
        payload = {
            "format_version": 1,
            "variables": [{"name": n, **variable} for n in ("X", "phi", "Z")],
            "edges": [["X", "phi"]],
            "bidirected": [],
            "cpds": [
                {"child": "X", "parents": [], "table": [[0.3, 0.7]]},
                {"child": "phi", "parents": ["X"], "table": [[0.9, 0.1], [0.2, 0.8]]},
                {"child": "Z", "parents": [], "table": [[0.5, 0.5]]},
            ],
            "phenomenon": {"variable": "X", "cp_label": "b"},
            "metric": {"variable": "phi"},
            "context": [],
        }
        path = tmp_path / "off_target.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        note = "safety principle 'noop' targets ['Z'], none of which influence 'X' or 'phi'"
        argv = ("sp", str(path), "--sp", "Z=a", "--name", "noop")
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["notes"] == [note]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == note


class TestDeterminism:
    COMMANDS = [
        ("validate", "heavy-rain-reality"),
        ("validate", "friction-relation"),
        ("adjust", "heavy-rain-model", "-x", "X", "-y", "phi"),
        ("effect", "heavy-rain-reality", "--do", "X=CP", "--target", "phi"),
        ("effect", "heavy-rain-model", "--do", "X=notCP", "--target", "phi",
         "--route", "backdoor", "--adjust-set", "V2"),
        ("indicators", "heavy-rain-reality", "heavy-rain-model", "--set", "V1,V2,X"),
        ("sp", "heavy-rain-reality", "--sp", "V2=Slow"),
    ]

    def test_byte_identical_json_across_runs(self, capsys):
        for argv in self.COMMANDS:
            _, first, _ = run(capsys, *argv, "--format", "json")
            _, second, _ = run(capsys, *argv, "--format", "json")
            assert first == second, argv


def test_cli_import_leaves_networkx_unloaded():
    # The graph layer runs on plain adjacency; a fresh interpreter shows no
    # import path pulls networkx back in.
    src_dir = str(Path(causalcrit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", "import causalcrit.cli, sys; assert 'networkx' not in sys.modules"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
