"""tools/value_snapshot.py records every key through names the package and the oracles still have."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "value_snapshot.py")


def test_snapshot_reaches_every_name():
    # _record turns a removed or renamed name into one of these strings
    spec = importlib.util.spec_from_file_location("value_snapshot", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    values = tool.snapshot()
    stale = {key: value for key, value in values.items() if isinstance(value, str)
             and value.split(":")[0] in ("AttributeError", "ImportError", "ModuleNotFoundError",
                                         "NameError", "TypeError")}
    assert values and not stale
