"""The one dimension-cap check that every capped allocation makes."""

import ast
from pathlib import Path

import pytest

from treecost import DimensionCapExceeded, config


@pytest.mark.parametrize(
    "base, power, cap, past",
    [
        (2, 10, 1024, None),
        (2, 10, 1023, "1024"),
        (3, 7, 2187, None),
        (3, 7, 2186, "2187"),
        (2**200 + 7, 1, 2**22, "at least 2^200"),
        (2, 128, 2**22, str(2**128)),
        (2, 129, 2**22, "at least 2^129"),
        (5, 10**9, 2**22, "at least 2^2000000000"),
        # factors are read as their product: exact near the cap, and far
        # past it the floor sums each factor's, so 3^200 from 200 factors
        # reads 2^200 where the one base 3^200 reads 2^316
        ([3, 3, 2], 2, 324, None),
        ([3, 3, 2], 2, 323, "324"),
        ([3] * 200, 1, 2**22, "at least 2^200"),
        (3**200, 1, 2**22, "at least 2^316"),
        # a zero factor makes the size zero, however many others there are
        ([0] + [2] * 200, 1, 2**22, None),
    ],
)
def test_sizes_are_compared_exactly_near_the_cap_and_bounded_far_past_it(
    base, power, cap, past
):
    # a size equal to the cap fits; one past it is printed exactly while it
    # is small, and far past it as the power-of-two floor it cannot be under
    assert config.size_past(base, power, cap) == past


def test_the_refusal_reads_what_spans_how_much_of_what(monkeypatch):
    with pytest.raises(
        DimensionCapExceeded, match=r"^block spans 2187 levels, cap 2186$"
    ):
        config.check_dim("block", 3, 7, "levels", cap=2186)
    config.check_dim("block", 3, 7, "levels", cap=2187)
    # without a cap the environment's is read
    monkeypatch.setenv("TREECOST_DIM_CAP", "1023")
    with pytest.raises(
        DimensionCapExceeded, match=r"^block spans 1024 amplitudes, cap 1023$"
    ):
        config.check_dim("block", 2, 10)
    monkeypatch.setenv("TREECOST_DIM_CAP", "1024")
    config.check_dim("block", 2, 10)


def test_a_size_far_past_the_cap_is_refused_without_being_built():
    # 2^(10^12) would take 125 GB to build, and its digits cannot be printed
    with pytest.raises(DimensionCapExceeded) as exc:
        config.check_dim("block", 2, 10**12)
    assert str(exc.value) == (
        f"block spans at least 2^{10**12} amplitudes, cap {config.dim_cap()}"
    )


def test_every_config_constant_is_read_in_the_library():
    # a module-level constant that no code of the library reads (its own
    # assignment aside) is a knob that changes nothing
    package = Path(config.__file__).parent
    assigned = {
        target.id
        for node in ast.parse(Path(config.__file__).read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper()
    }
    assert assigned
    read = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(assigned - read) == []
