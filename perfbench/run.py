#!/usr/bin/env python3
"""Build and run the bgploop benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds perfbench/ (a Go module that imports the repository's
packages through a relative replace directive) into the build directory
and runs it with the given arguments. The build directory is
$CARGO_TARGET_DIR when set, else .bench_build; the Go build cache, module
cache, temporary files and the benchmark's scratch state all stay inside
it.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    for var, sub in (
        ("GOCACHE", "gocache"),
        ("GOPATH", "gopath"),
        ("GOMODCACHE", "gopath/pkg/mod"),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        ("HOME", "home"),
        ("XDG_CONFIG_HOME", "home/.config"),
        ("XDG_CACHE_HOME", "home/.cache"),
    ):
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = "-mod=readonly"
    env["GOPROXY"] = "off"
    env["CGO_ENABLED"] = "0"
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")
    os.chdir(root)
    workdir = os.path.join(build, "perfbench")
    os.execve(binary, [binary, "-workdir", workdir] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
