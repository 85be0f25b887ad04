"""The snapshot generator: its fit check runs on the public fitting API, and
it regenerates the bundled snapshot byte for byte."""

import importlib.util
import os

import numpy as np

from lockcycle.series import JHU_FILENAMES, parse_jhu_timeseries

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "make_snapshot.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("make_snapshot", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_fit_on_bundled_israel_row(data_dir):
    tool = load_tool()
    confirmed, deaths = (
        parse_jhu_timeseries(os.path.join(data_dir, JHU_FILENAMES[kind]), "Israel", kind)
        for kind in ("confirmed_cumulative", "deaths_cumulative"))
    assert confirmed.start_date == tool.START
    model, sse = tool.check_fit(np.diff(confirmed.values, prepend=0.0), deaths.values)
    assert model.delay_k == 3
    assert sorted(sse) == [2, 3, 4]
    assert sse[3] == model.sse
    # the generator's own acceptance margin against the neighbouring delays
    assert min(sse[2], sse[4]) / model.sse > 1.002


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
