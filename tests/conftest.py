import os
import warnings

import pytest

# hypothesis imports its patching module only when a test fails, and that
# import can raise a DeprecationWarning from a third-party module (for one,
# mypy_extensions.TypedDict).  Under -W error the warning would end the run
# with an INTERNALERROR in place of the falsifying example, so import it once
# here with that warning ignored.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass


def pytest_collection_modifyitems(config, items):
    """Skip tests marked `extended` unless CIRCODES_EXTENDED=1 is set."""
    if os.environ.get("CIRCODES_EXTENDED") == "1":
        return
    skip = pytest.mark.skip(reason="extended run; set CIRCODES_EXTENDED=1")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)


def pytest_terminal_summary(terminalreporter):
    """Echo one verdict line per acceptance criterion at the end of the run."""
    import sys
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None)
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)
