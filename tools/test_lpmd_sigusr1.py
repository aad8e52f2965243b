#!/usr/bin/env python3
"""End-to-end test of lpmd's mid-run snapshot save (SIGUSR1).

Runs lpmd with a live churn feed, --snapshot-save and --check; sends SIGUSR1
once the first periodic stats line shows the pipeline forwarding; waits for
the mid-run "[snapshot] image written" line while lpmd is still serving;
then requires lpmd to exit 0 having counted the mid-run save, and
`poptrie_fsck --verify-image` to accept the image it left behind.

Usage: test_lpmd_sigusr1.py --lpmd PATH --fsck PATH --image PATH
Exit codes: 0 pass, 1 failure.
"""

import argparse
import os
import queue
import signal
import subprocess
import sys
import threading

STARTUP_TIMEOUT_S = 60  # table build + first stats line, generous for sanitizers
SAVE_TIMEOUT_S = 60
EXIT_TIMEOUT_S = 120


def fail(message, lines):
    print(f"test_lpmd_sigusr1: FAILED: {message}", file=sys.stderr)
    print("--- lpmd output ---", file=sys.stderr)
    sys.stderr.writelines(lines)
    return 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lpmd", required=True)
    parser.add_argument("--fsck", required=True)
    parser.add_argument("--image", required=True)
    args = parser.parse_args(argv)

    if os.path.exists(args.image):
        os.remove(args.image)
    cmd = [
        args.lpmd, "--engine", "poptrie", "--workers", "2", "--routes", "10000",
        "--duration", "3", "--rate-mpps", "1", "--churn-updates", "6000",
        "--snapshot-save", args.image, "--check",
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, bufsize=1)
    lines = []
    pending = queue.Queue()

    def pump():
        for line in proc.stdout:
            pending.put(line)
        pending.put(None)

    threading.Thread(target=pump, daemon=True).start()

    def wait_for(marker, timeout):
        """Collects output until a line starting with `marker` arrives
        (True), or until end of output when `marker` is None (True). False
        on a timeout, or on end of output before the marker."""
        while True:
            try:
                line = pending.get(timeout=timeout)
            except queue.Empty:
                return False
            if line is None:
                return marker is None
            lines.append(line)
            if marker is not None and line.startswith(marker):
                return True

    try:
        if not wait_for("[", STARTUP_TIMEOUT_S):
            return fail("no stats line from lpmd", lines)
        proc.send_signal(signal.SIGUSR1)
        if not wait_for("[snapshot] image written", SAVE_TIMEOUT_S):
            return fail("no mid-run '[snapshot] image written' line", lines)
        if proc.poll() is not None:
            return fail("lpmd had exited before the mid-run save was reported", lines)
        if not wait_for(None, EXIT_TIMEOUT_S):
            return fail("lpmd did not finish", lines)
        code = proc.wait(timeout=EXIT_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        return fail(f"lpmd exited {code}, expected 0", lines)
    if not any("1 mid-run save(s)" in line for line in lines):
        return fail("the summary does not count one mid-run save", lines)

    fsck = subprocess.run([args.fsck, "--verify-image", args.image],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if fsck.returncode != 0:
        return fail(f"poptrie_fsck --verify-image exited {fsck.returncode}:\n{fsck.stdout}",
                    lines)
    print("test_lpmd_sigusr1: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
