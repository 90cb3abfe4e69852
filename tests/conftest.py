import os
import sys

# One BLAS thread unless the caller chose otherwise.  On small matrices
# OpenBLAS's default threads cost far more than they give (an N=8 ML fit
# ran about ten times slower with two threads on a 2-core host), and
# they compete with anything else on the machine.  pytest and its
# hypothesis and benchmark plugins import no numpy before this file, so
# the setting reaches numpy's BLAS when the first test module imports it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the one-line-per-criterion acceptance table after the run."""
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(results):
        label, ok, detail = results[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{status}  {num:02d} {label}: {detail}")
