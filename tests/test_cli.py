"""Command-line behavior: exit codes, output schemas, determinism."""
import json
import os
import warnings

import numpy as np
import pytest

from minrect.cli import main
from minrect.geometry import rig_to_dict
from minrect import serialize

from conftest import A_LEFT, make_camera, rot_y
from minrect.geometry import StereoRig

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "rig_d_rectify.json")
DUMP_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "rig_d_dump_quartic.txt")


def write_rig(tmp_path, rig, name="calib.json"):
    path = tmp_path / name
    path.write_text(serialize.dumps(rig_to_dict(rig)))
    return str(path)


@pytest.fixture
def rig_d_path(tmp_path, rig_d):
    return write_rig(tmp_path, rig_d)


def test_rectify_success(tmp_path, rig_d_path, capsys):
    out = str(tmp_path / "rect.json")
    assert main(["rectify", rig_d_path, "-o", out]) == 0
    data = json.loads(open(out).read())
    assert set(data) == {"H1", "H2", "y1", "distortion", "components",
                         "output_size"}
    assert set(data["components"]) == {"w1", "w2", "shear1", "shear2"}
    printed = capsys.readouterr().out
    assert "y1 " in printed and "distortion " in printed


def test_rectify_frontoparallel_prints_zero(tmp_path, frontoparallel, capsys):
    calib = write_rig(tmp_path, frontoparallel)
    out = str(tmp_path / "rect.json")
    assert main(["rectify", calib, "-o", out]) == 0
    assert "distortion 0.000000" in capsys.readouterr().out


def test_rectify_matches_golden(tmp_path, rig_d_path):
    out = str(tmp_path / "rect.json")
    assert main(["rectify", rig_d_path, "-o", out]) == 0
    assert open(out).read() == open(GOLDEN).read()


def test_rectify_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    out = str(tmp_path / "rect.json")
    assert main(["rectify", str(bad), "-o", out]) == 2
    assert not os.path.exists(out)


def test_rectify_missing_file(tmp_path):
    assert main(["rectify", str(tmp_path / "absent.json"),
                 "-o", str(tmp_path / "o.json")]) == 4


def test_rectify_dump_quartic(tmp_path, rig_d_path, capsys):
    out = str(tmp_path / "rect.json")
    assert main(["rectify", rig_d_path, "-o", out, "--dump-quartic"]) == 0
    first_line = capsys.readouterr().out.splitlines()[0]
    dump = json.loads(first_line)
    assert len(dump["m"]) == 8
    assert len(dump["coeffs"]) == 5
    assert len(dump["roots"]) >= 1


def test_rectify_dump_quartic_matches_golden(tmp_path, rig_d_path, capsysbinary):
    out = str(tmp_path / "rect.json")
    assert main(["rectify", rig_d_path, "-o", out, "--dump-quartic"]) == 0
    with open(DUMP_GOLDEN, "rb") as f:
        assert capsysbinary.readouterr().out == f.read()


def test_evaluate_y1_matches_rectify(tmp_path, rig_d_path, capsys):
    out = str(tmp_path / "rect.json")
    main(["rectify", rig_d_path, "-o", out])
    data = json.loads(open(out).read())
    capsys.readouterr()
    assert main(["evaluate", rig_d_path, "--y1", str(data["y1"])]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(data["distortion"], rel=1e-5)


def test_evaluate_homographies_affine_zero(tmp_path, rig_d_path, capsys):
    hpath = tmp_path / "h.json"
    eye = np.eye(3).tolist()
    hpath.write_text(json.dumps({"H1": eye, "H2": eye}))
    assert main(["evaluate", rig_d_path, "--homographies", str(hpath)]) == 0
    assert capsys.readouterr().out.strip() == "0.000000"


def test_evaluate_non_normalisable(tmp_path, rig_d_path):
    hpath = tmp_path / "h.json"
    H = np.eye(3)
    H[2, 2] = 0.0
    hpath.write_text(json.dumps({"H1": H.tolist(), "H2": np.eye(3).tolist()}))
    assert main(["evaluate", rig_d_path, "--homographies", str(hpath)]) == 3


def test_synth_deterministic(tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["synth", "-o", d1, "--seed", "0"]) == 0
    assert main(["synth", "-o", d2, "--seed", "0"]) == 0
    for name in ("calib.json", "left.ppm", "right.ppm", "correspondences.csv"):
        assert (open(os.path.join(d1, name), "rb").read()
                == open(os.path.join(d2, name), "rb").read())


def test_synth_correspondences_epipolar(tmp_path):
    import csv

    from minrect.geometry import fundamental_matrix, load_calibration

    d = str(tmp_path / "scene")
    assert main(["synth", "-o", d, "--seed", "2"]) == 0
    rig = load_calibration(os.path.join(d, "calib.json"))
    F = fundamental_matrix(rig)
    with open(os.path.join(d, "correspondences.csv")) as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows
    for row in rows:
        x1, y1, x2, y2 = (float(v) for v in row)
        res = abs(np.array([x2, y2, 1.0]) @ F @ np.array([x1, y1, 1.0]))
        assert res <= 1e-6


def test_warp_identity(tmp_path):
    from minrect.warp import from_array, read_pnm, write_pnm

    rng = np.random.default_rng(5)
    img = from_array(rng.integers(0, 256, size=(8, 9), dtype=np.uint8))
    src = str(tmp_path / "in.pgm")
    write_pnm(img, src)
    hpath = tmp_path / "h.json"
    hpath.write_text(json.dumps({"H": np.eye(3).tolist()}))
    out = str(tmp_path / "out.pgm")
    assert main(["warp", src, str(hpath), "-o", out]) == 0
    assert np.array_equal(read_pnm(out).data, img.data)


def test_stress_writes_report(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    assert main(["stress", "--trials", "10", "--seed", "1", "-o", out]) == 0
    report = json.loads(open(out).read())
    assert report["direct_successes"] == 10
    assert "direct_successes 10/10" in capsys.readouterr().out


def test_degenerate_command(tmp_path, capsys):
    d = str(tmp_path / "deg")
    assert main(["degenerate", "--a", "0.3", "--theta", "0.4", "-o", d]) == 0
    printed = capsys.readouterr().out
    assert "pd_probe False" in printed
    assert os.path.exists(os.path.join(d, "rectify.json"))


# The 1e300 baseline overflows numpy's norm on the way; that warning is not what is tested.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_degenerate_pipeline_error_creates_no_directory(tmp_path, capsys):
    d = tmp_path / "d1"
    assert main(["degenerate", "--a", "1e300", "--theta", "1.5", "-o", str(d)]) == 3
    assert "stage 'shear'" in capsys.readouterr().err
    assert not d.exists()


# --- strict homography files and warp size flags ---------------------------------

@pytest.fixture
def warp_inputs(tmp_path):
    from minrect.warp import from_array, write_pnm

    src = str(tmp_path / "in.pgm")
    write_pnm(from_array(np.zeros((4, 5), dtype=np.uint8)), src)
    hpath = tmp_path / "h.json"
    hpath.write_text(json.dumps({"H1": np.eye(3).tolist(), "H2": np.eye(3).tolist()}))
    return src, str(hpath), str(tmp_path / "out.pgm")


@pytest.mark.parametrize("flags", [["--width", "3"], ["--height", "3"],
                                   ["--width", "-5", "--height", "10"],
                                   ["--width", "0", "--height", "10"]])
def test_warp_size_flags_rejected(warp_inputs, flags):
    src, hpath, out = warp_inputs
    assert main(["warp", src, hpath, "-o", out] + flags) == 2
    assert not os.path.exists(out)


def test_warp_size_flags_applied(warp_inputs):
    from minrect.warp import read_pnm

    src, hpath, out = warp_inputs
    assert main(["warp", src, hpath, "-o", out, "--width", "3", "--height", "2"]) == 0
    assert (read_pnm(out).width, read_pnm(out).height) == (3, 2)


def test_warp_rejects_list_root(warp_inputs, tmp_path):
    src, _, out = warp_inputs
    hpath = tmp_path / "list.json"
    hpath.write_text(json.dumps([np.eye(3).tolist()]))
    assert main(["warp", src, str(hpath), "-o", out]) == 2
    assert not os.path.exists(out)


@pytest.mark.parametrize("h1", ["nan", "ragged", "missing"])
def test_evaluate_rejects_bad_homography(tmp_path, rig_d_path, h1):
    data = {"H1": np.eye(3).tolist(), "H2": np.eye(3).tolist()}
    if h1 == "nan":
        data["H1"][2][0] = float("nan")  # json.dumps writes the bare NaN token
    elif h1 == "ragged":
        data["H1"] = [[1, 2], [3]]
    else:
        del data["H1"]
    hpath = tmp_path / "h.json"
    hpath.write_text(json.dumps(data))
    assert main(["evaluate", rig_d_path, "--homographies", str(hpath)]) == 2


def test_rectify_ill_conditioned_camera_exits_3(tmp_path):
    from test_rectify import singular_rig

    calib = write_rig(tmp_path, singular_rig(1))
    out = str(tmp_path / "rect.json")
    assert main(["rectify", calib, "-o", out]) == 3
    assert not os.path.exists(out)


def test_warp_canvas_over_limit_exits_2(tmp_path):
    """A 10^10-pixel canvas is refused before anything is allocated."""
    from minrect.warp import from_array, write_pnm

    src = str(tmp_path / "in.pgm")
    write_pnm(from_array(np.zeros((4, 4), dtype=np.uint8)), src)
    hpath = tmp_path / "h.json"
    hpath.write_text(json.dumps({"H": np.eye(3).tolist()}))
    out = str(tmp_path / "out.pgm")
    assert main(["warp", src, str(hpath), "-o", out,
                 "--width", "100000", "--height", "100000"]) == 2
    assert not os.path.exists(out)


def test_evaluate_rejects_2x2_homography(tmp_path, rig_d_path):
    hpath = tmp_path / "h.json"
    hpath.write_text(json.dumps({"H1": [[1.0, 0.0], [0.0, 1.0]], "H2": np.eye(3).tolist()}))
    assert main(["evaluate", rig_d_path, "--homographies", str(hpath)]) == 2


@pytest.mark.parametrize("field, value", [("width", 640.7), ("width", "640"),
                                          ("width", 640.0), ("height", True)])
def test_rectify_rejects_non_integer_sizes(tmp_path, rig_d, capsys, field, value):
    """A calibration size must be a JSON integer: nothing is rounded or parsed."""
    data = rig_to_dict(rig_d)
    data["cam2"][field] = value
    calib = tmp_path / "calib.json"
    calib.write_text(json.dumps(data))
    out = str(tmp_path / "rect.json")
    assert main(["rectify", str(calib), "-o", out]) == 2
    assert "must be integers" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_rectify_rejects_calibration_without_cam2(tmp_path, rig_d, capsys):
    calib = tmp_path / "calib.json"
    calib.write_text(json.dumps({"cam1": rig_to_dict(rig_d)["cam1"]}))
    out = str(tmp_path / "rect.json")
    assert main(["rectify", str(calib), "-o", out]) == 2
    assert "'cam1' and 'cam2'" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["stress", "--trials", "0"],
    ["stress", "--seed", "-1"],
    ["synth", "--seed", "-1"],
    ["degenerate", "--a", "0.3", "--theta", "2"],
    ["evaluate", "--y1", "nan"],
    ["evaluate", "--y1", "inf"],
])
def test_out_of_range_arguments_exit_2_and_write_nothing(tmp_path, rig_d_path, capsys, argv):
    out = tmp_path / "out"
    if argv[0] == "evaluate":
        argv = ["evaluate", rig_d_path, *argv[1:]]
    else:
        argv = [*argv, "-o", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ")
    assert captured.out == ""
    assert not out.exists()


def test_rectify_rejects_camera_record_without_intrinsics(tmp_path, rig_d, capsys):
    data = rig_to_dict(rig_d)
    del data["cam1"]["A"]
    calib = tmp_path / "calib.json"
    calib.write_text(json.dumps(data))
    out = str(tmp_path / "rect.json")
    assert main(["rectify", str(calib), "-o", out]) == 2
    assert "bad camera record" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("size", [[[5], [4]], [5, 4, 1], "54", 5, [5.0, 4], None])
def test_warp_rejects_output_size_that_is_not_two_positive_integers(warp_inputs, tmp_path,
                                                                    size):
    src, _, out = warp_inputs
    hpath = tmp_path / "sized.json"
    hpath.write_text(json.dumps({"H1": np.eye(3).tolist(), "output_size": size}))
    assert main(["warp", src, str(hpath), "-o", out]) == 2
    assert not os.path.exists(out)


def test_dumps_formats_nonfinite_and_special_values():
    assert serialize.dumps([float("nan"), float("inf"), -float("inf")]) == '["nan", "inf", "-inf"]'
    assert serialize.dumps({"a": True, "b": False, "c": None}) == \
        '{"a": true, "b": false, "c": null}'
    assert serialize.dumps(np.array([[0.1, np.nan], [np.inf, 2.0]])) == \
        '[[0.10000000000000001, "nan"], ["inf", 2]]'
    assert serialize.dumps((np.int64(3), np.float32(0.5), 1, "x")) == '[3, 0.5, 1, "x"]'


def test_entry_exits_with_the_main_code(tmp_path, rig_d_path, monkeypatch):
    from minrect.cli import entry

    out = str(tmp_path / "rect.json")
    for argv, code in ((["rectify", rig_d_path, "-o", out], 0),
                       (["rectify", str(tmp_path / "missing.json"), "-o", out], 4),
                       (["rectify"], 2)):
        monkeypatch.setattr("sys.argv", ["minrect", *argv])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == code


def test_evaluate_refuses_y1_that_overflows_without_a_warning(rig_d_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evaluate", rig_d_path, "--y1", "1e200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert "overflows" in captured.err
    assert captured.err.count("\n") == 1


def test_evaluate_large_y1_that_does_not_overflow_prints_its_value(tmp_path, capsys):
    out = str(tmp_path / "scene")
    assert main(["synth", "--seed", "3", "-o", out]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evaluate", os.path.join(out, "calib.json"), "--y1", "1e150"]) == 0
    assert capsys.readouterr().out == "2.29477e+09\n"
