"""Pragma parsing, suppression scoping, and pragma hygiene."""

import textwrap

from repro.analysis.core import lint_source
from repro.analysis.pragmas import parse_pragmas


def lint(source: str):
    return lint_source(textwrap.dedent(source), path="fixture.py")


def test_trailing_pragma_suppresses_same_line():
    report = lint("""
        import time

        def boundary():
            return time.time()  # crayfish: allow[wall-clock]: CLI boundary timestamp, never enters simulated results
    """)
    assert report.findings == ()
    assert len(report.suppressed) == 1
    assert report.suppressed[0].finding.rule == "wall-clock"
    assert "CLI boundary" in report.suppressed[0].pragma.reason


def test_standalone_pragma_suppresses_next_line():
    report = lint("""
        import time

        def boundary():
            # crayfish: allow[wall-clock]: wall time for the progress spinner only
            return time.time()
    """)
    assert report.findings == ()
    assert len(report.suppressed) == 1


def test_standalone_pragma_does_not_leak_past_next_line():
    report = lint("""
        import time

        def boundary():
            # crayfish: allow[wall-clock]: covers only the next line
            a = time.time()
            b = time.time()
            return a - b
    """)
    assert len(report.suppressed) == 1
    assert len(report.findings) == 1
    assert report.findings[0].line == 7


def test_file_pragma_suppresses_everywhere():
    report = lint("""
        # crayfish: allow-file[wall-clock]: dashboard module, renders real wall time by design
        import time

        def a():
            return time.time()

        def b():
            return time.perf_counter()
    """)
    assert report.findings == ()
    assert len(report.suppressed) == 2


def test_pragma_covers_multiple_rules():
    report = lint("""
        import time, random

        def boundary():
            return time.time() + random.random()  # crayfish: allow[wall-clock, global-random]: interactive demo path outside any measured run
    """)
    assert report.findings == ()
    assert {s.finding.rule for s in report.suppressed} == {
        "wall-clock",
        "global-random",
    }


def test_pragma_without_reason_is_a_finding():
    report = lint("""
        import time

        t = time.time()  # crayfish: allow[wall-clock]
    """)
    # The suppression still applies, but the missing reason is an error.
    assert len(report.suppressed) == 1
    assert len(report.findings) == 1
    assert report.findings[0].rule == "pragma"
    assert "no reason" in report.findings[0].message


def test_unused_pragma_is_a_finding():
    report = lint("""
        x = 1  # crayfish: allow[wall-clock]: nothing here actually needs this
    """)
    assert len(report.findings) == 1
    assert "suppresses nothing" in report.findings[0].message


def test_unused_pragma_for_unselected_rule_is_left_alone():
    # Under --select the unselected rules never run, so their pragmas
    # cannot be proven dead and must not be reported as suppressing
    # nothing.
    from repro.analysis.core import make_rules

    report = lint_source(
        textwrap.dedent("""
            import time

            t = time.time()  # crayfish: allow[wall-clock]: CLI boundary timestamp
        """),
        path="fixture.py",
        rules=make_rules(["mutable-default", "unsorted-iteration"]),
    )
    assert report.findings == ()


def test_pragma_naming_unknown_rule_is_a_finding():
    report = lint("""
        x = 1  # crayfish: allow[no-such-rule]: typo'd rule name
    """)
    assert len(report.findings) == 1
    assert "unknown rule" in report.findings[0].message


def test_pragma_does_not_suppress_other_rules():
    report = lint("""
        import time

        t = time.time()  # crayfish: allow[mutable-default]: wrong rule on purpose
    """)
    rules = {f.rule for f in report.findings}
    # The wall-clock finding survives AND the pragma is flagged as unused.
    assert "wall-clock" in rules
    assert "pragma" in rules


def test_pragma_inside_string_literal_ignored():
    pragmas = parse_pragmas(
        'text = "# crayfish: allow[wall-clock]: not a real pragma"\n'
    )
    assert pragmas == []


def test_parse_pragma_fields():
    source = (
        "# crayfish: allow-file[wall-clock]: whole file\n"
        "x = 1  # crayfish: allow[id-ordering, silent-except]: two rules\n"
    )
    file_pragma, line_pragma = parse_pragmas(source)
    assert file_pragma.kind == "allow-file"
    assert file_pragma.rules == ("wall-clock",)
    assert line_pragma.kind == "allow"
    assert line_pragma.rules == ("id-ordering", "silent-except")
    assert line_pragma.reason == "two rules"
    assert line_pragma.standalone is False
    assert line_pragma.target_line == 2


# -- tie-race pseudo-rule ----------------------------------------------------


def test_tie_race_pragma_not_flagged_as_dead():
    """tie-race is dynamic: its pragmas legitimately suppress nothing
    during a static lint and must not trip dead-pragma hygiene."""
    report = lint_source(
        "x = 1  # crayfish: allow[tie-race]: known benign tick overlap\n",
        "sample.py",
    )
    assert report.clean


def test_static_pragma_still_flagged_as_dead():
    report = lint_source(
        "x = 1  # crayfish: allow[wall-clock]: stale excuse\n",
        "sample.py",
    )
    assert [f.rule for f in report.findings] == ["pragma"]
    assert "suppresses nothing" in report.findings[0].message
