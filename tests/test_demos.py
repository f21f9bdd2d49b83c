"""Each demo script's main() runs against the current API."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
README = DEMOS.parent / "README.md"
# A line each demo must print, where one is fixed by its scenario.
EXPECTED = {
    "certify_equilibrium": "exact welfare optimum 2100.0 at x = [10. 40.]; "
                           "efficiency gap 29.296875",
    "custom_scenario": "shadow price of customer 1's daily cap: 20.0000",
}


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_main_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert out
    assert EXPECTED.get(name, "") in out


def test_readme_quickstart_runs(capsys):
    # the Python block under "## Library quickstart", run as written
    section = README.read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, f"{README} quickstart", "exec"), {})
    assert "'pass': True" in capsys.readouterr().out
