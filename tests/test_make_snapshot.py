"""The snapshot generator: it checks the files it writes through the library
that reads them, writes only a snapshot that passes, and regenerates the
bundled snapshot byte for byte."""

import datetime as dt
import importlib.util
import os

from lockcycle.series import JHU_FILENAMES

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "make_snapshot.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("make_snapshot", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_snapshot_on_the_bundled_snapshot(data_dir):
    model, sse, problems = load_tool().check_snapshot(data_dir)
    assert problems == []
    assert model.delay_k == 3
    assert sorted(sse) == [2, 3, 4]
    assert sse[3] == model.sse
    # the generator's own acceptance margin against the neighbouring delays
    assert min(sse[2], sse[4]) / model.sse > 1.002


def test_failed_calibration_writes_nothing(tmp_path, capsys):
    tool = load_tool()
    tool.ACTIVE_KNOTS_TAIL[0] = (dt.date(2020, 8, 30), 20000.0)  # off its anchor
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert tool.main(str(out_dir)) == 1
    assert os.listdir(out_dir) == []
    out = capsys.readouterr().out
    assert "PROBLEM: active_2020-08-30 20000.0 outside [20876.0, 20876.0]\n" in out
    assert out.endswith("CALIBRATION FAILED\n")


def test_regenerates_the_bundled_snapshot(data_dir, tmp_path, capsys):
    from lockcycle.validation import verify_checksums

    assert load_tool().main(str(tmp_path)) == 0
    assert "snapshot ok" in capsys.readouterr().out
    written = sorted(os.listdir(tmp_path))
    assert written == ["MANIFEST.json", *sorted(JHU_FILENAMES.values())]
    for name in written:
        with open(os.path.join(data_dir, name), "rb") as bundled:
            assert (tmp_path / name).read_bytes() == bundled.read(), name
    assert verify_checksums(str(tmp_path)) == []


def test_check_snapshot_fits_once_and_refits_three_delays(data_dir, monkeypatch):
    import lockcycle.cfr as cfr

    tool = load_tool()
    fit, calls = cfr.fit, []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("k_range"))
        return fit(*args, **kwargs)

    # the tool's own name and the one validate calls through
    monkeypatch.setattr(tool, "fit", counted)
    monkeypatch.setattr(cfr, "fit", counted)
    assert tool.check_snapshot(data_dir)[2] == []
    assert calls == [None, (2, 2), (3, 3), (4, 4)]
