"""The snapshot generator's fit check runs on the public fitting API."""

import importlib.util
import os

import numpy as np

from lockcycle import parse_jhu_timeseries
from lockcycle.series import JHU_FILENAMES

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
