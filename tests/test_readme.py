"""The Python usage block of README.md runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    pl = namespace["pl"]
    assert abs(namespace["pair"].nu - 2**-0.5) < 1e-6
    assert abs(pl.expectation_two_particle(namespace["elements"], namespace["pair"]) - 10.0) < 1e-5
    assert pl.dlocal_residual(namespace["local"], namespace["D"]) == 0.0
    assert abs(namespace["two"] - namespace["singles"][0]) < 1e-5
    spec, result = namespace["spec"], namespace["result"]
    assert abs(pl.pointer_block_coherence(result.amplitudes, spec) - 2**-0.5) < 1e-10
    assert pl.pointer_block_coherence(namespace["gemenge"], spec) == 0.0
    assert abs(pl.shift_witness(spec).expectation(result.amplitudes) - 1.0) < 1e-10


def test_readme_cli_block_is_the_usage_text():
    from pointerlab.cli import USAGE

    section = README.read_text().split("## CLI\n", 1)[1]
    assert re.match(r"\s*```\n(.*?)```", section, flags=re.DOTALL).group(1) == USAGE
