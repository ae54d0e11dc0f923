"""The committed artifacts do not depend on how the interpreter sums floats.

CPython 3.12's builtin ``sum()`` adds floats with Neumaier's compensated
summation; 3.11's adds them one rounding at a time.  CI runs both, and the
artifacts are compared byte for byte, so every float aggregate that reaches
an artifact must round the same way on both: such sites use
``math.fsum``, which is correctly rounded everywhere.  This test runs the
smoke suites once as the interpreter sums and once with ``builtins.sum``
replaced by an emulation of 3.12's algorithm, and wants the same bytes —
so the 3.11 leg catches a new site too.
"""

import builtins
import math

from repro.bench.suites import SUITES, run_suite


def neumaier_sum(iterable, /, start=0):
    """``sum()`` as CPython 3.12 computes it: exact ints while the items
    are ints, then compensated float addition while they are floats (or
    machine-sized ints), the compensation folded in at the end or when an
    item of another type takes the generic path."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float or (type(item) in (int, bool)
                                       and -2 ** 63 <= item < 2 ** 63):
                value = float(item)
                summed = total + value
                if abs(total) >= abs(value):
                    compensation += (total - summed) + value
                else:
                    compensation += (value - summed) + total
                total = summed
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


def test_the_emulation_compensates_like_3_12():
    assert neumaier_sum([0.1] * 10) == 1.0
    assert neumaier_sum([1e100, 1.0, -1e100]) == 1.0
    assert neumaier_sum([1, 2, 3]) == 6 and type(neumaier_sum([1, 2])) is int
    assert neumaier_sum([1, 0.5, 2]) == 3.5
    assert neumaier_sum([[1], [2]], []) == [1, 2]


def smoke_artifacts(out_dir):
    for name in SUITES:
        run_suite(name, smoke=True, out_dir=str(out_dir))
    return {path.name: path.read_bytes()
            for path in sorted(out_dir.iterdir())}


def test_smoke_artifacts_are_the_same_under_3_12_float_sums(tmp_path,
                                                             monkeypatch):
    plain = smoke_artifacts(tmp_path / "plain")
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    compensated = smoke_artifacts(tmp_path / "neumaier")
    assert sorted(plain) == sorted(compensated) \
        == sorted(f"BENCH_{name}.smoke.json" for name in SUITES)
    moved = [name for name in plain if plain[name] != compensated[name]]
    assert moved == [], f"a float sum() reaches {moved}: use math.fsum"
