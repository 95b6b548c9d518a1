"""The paper's Figure 1, as a runnable demo.

Runs the naive counter client (``set_value(1); add(2); get_value()``
without awaiting the futures) on the simulated AUTOSAR Adaptive stack
many times, then runs the DEAR version of the same application.  The
stock platform prints several different values; DEAR always prints 3.

Run:  python examples/client_server.py [n_runs]
"""

import sys
from collections import Counter

from repro.analysis.report import histogram_table
from repro.apps.counter import printed_values, run_det, run_nondet


def printed(run):
    """The value a one-round counter run printed."""
    (value,) = printed_values(run)
    return value


def main():
    n_runs = int(sys.argv[1]) if len(sys.argv) > 1 else 60

    print(f"Running the stock-AP client {n_runs} times "
          f"(each run = one seed = one possible schedule)...")
    stock = Counter(printed(run_nondet(seed)) for seed in range(n_runs))
    print()
    print(histogram_table(stock, "Printed value on stock AUTOSAR AP:"))

    print()
    print("Running the DEAR client 8 times...")
    dear = Counter(printed(run_det(seed)) for seed in range(8))
    print()
    print(histogram_table(dear, "Printed value under DEAR:"))

    print()
    if set(dear) == {3}:
        print("DEAR: tag-order processing makes the result always 3, even "
              "though the client still never waits for its futures.")


if __name__ == "__main__":
    main()
