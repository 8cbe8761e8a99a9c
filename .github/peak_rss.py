"""Run a command and fail if its peak resident set size passes a bound.

Usage: python .github/peak_rss.py BOUND_MB COMMAND [ARG ...]

Prints the command's peak RSS in MB (read from getrusage, so Linux units).
Exits with the command's own status if it fails, else 1 when the peak is
above BOUND_MB and 0 otherwise.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: python .github/peak_rss.py BOUND_MB COMMAND [ARG ...]", file=sys.stderr)
        return 2
    bound, command = float(argv[0]), argv[1:]
    status = subprocess.run(command).returncode
    if status:
        return status
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # kB on Linux
    print(f"{' '.join(command)}: peak RSS {peak:.1f} MB (bound {bound:g} MB)")
    return int(peak > bound)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
