import pytest

from lockcycle import StrategyParams
from lockcycle.series import default_data_dir


@pytest.fixture
def baseline() -> StrategyParams:
    # documented default working point: growth 0.041/day, decay 0.0553/day,
    # 21,000 active cases over a 54-day cycle
    return StrategyParams.from_growth_rates(0.0410, 0.0553, 21000.0, 54.0)


@pytest.fixture(scope="session")
def data_dir() -> str:
    return default_data_dir()
