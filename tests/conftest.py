import sys

from hypothesis import settings

# fixed examples, no deadline, and no example database written into the checkout
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance report after the run, outside stdout capture."""
    mod = sys.modules.get("test_acceptance")
    report = getattr(mod, "REPORT", None)
    if not report:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 30 + " acceptance report " + "=" * 30)
    for number, passed, detail in sorted(report):
        tag = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {tag} - {detail}")
    terminalreporter.write_line("=" * 79)
