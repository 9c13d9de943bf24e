# cli.py -- command-line front end: compose a config from a file plus flag
# overrides, run the experiment, write the report files, and print the
# summary block as <out>.summary holds it.

import argparse
import dataclasses
import os
import sys

from flowrl.harness import (
    MODES, ExperimentConfig, ValidationError, load_config, report_paths, run_experiment,
    summary_text, write_report,
)

# flag -> (config key, help) of every flag that overrides one config key;
# the flag parses its value as the key's field type, and its help names
# the key's default
OVERRIDES = {
    "--mode": ("mode", "experiment mode"),
    "--seed": ("seed", "experiment seed"),
    "--episodes": ("episodes_cap", "episode cap per training run"),
    "--goal": ("goal_mu", "target overhead-reduction fraction in (0, 1)"),
    "--table-bits": ("table_capacity_bits", "switch table capacity in bits"),
    "--out": ("output_path", "report CSV path; also writes <out>.summary and <out>.cfg"),
}

_METAVARS = {int: "N", float: "F", str: "PATH"}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flowrl",
        description=(
            "Flow-table management experiments: train a tabular Q-learning "
            "or DQN agent to place forwarding rules, or run the MBF "
            "baseline / exact placement oracle / parameter-significance "
            "comparison. Flags override the config file; unset values use "
            "the documented defaults."
        ),
    )
    parser.add_argument("--config", metavar="FILE", help="flat key=value config file")
    defaults = ExperimentConfig()
    types = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    for flag, (key, text) in OVERRIDES.items():
        choices = MODES if key == "mode" else None
        parser.add_argument(
            flag, dest=key, type=types[key], choices=choices,
            metavar="|".join(MODES) if choices else _METAVARS[types[key]],
            help="%s (default: %s)" % (text, getattr(defaults, key)),
        )
    parser.add_argument("--save-policy", metavar="PATH",
                        help="write the trained policy (Q-table or network) here")
    parser.add_argument("--load-policy", metavar="PATH",
                        help="start from a saved policy instead of fresh/pre-trained init")
    return parser


def compose_config(args):
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    for key, _ in OVERRIDES.values():
        value = getattr(args, key)
        if value is not None:
            setattr(cfg, key, value)
    return cfg.validate()


def same_file(a, b):
    """Whether paths a and b name one file: os.path.samefile where both
    exist, and where neither does, one os.path.realpath."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return not (os.path.exists(a) or os.path.exists(b)) and (
            os.path.realpath(a) == os.path.realpath(b))


def check_files(args, cfg):
    """Refuse a report set that would overwrite a directory or a file that
    --config, --load-policy or --save-policy names, a missing report
    directory, and a policy file that --config names. --load-policy may
    equal --save-policy: that updates a policy in place."""
    out = cfg.output_path
    if not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise ValidationError("--out %s: the directory does not exist" % out)
    reports = [p for files in report_paths(out, cfg.mode) for p in files]
    for report in reports:
        if os.path.isdir(report):
            raise ValidationError("--out %s: %s is a directory" % (out, report))
    for option in ("config", "load_policy", "save_policy"):
        path = getattr(args, option)
        if path is None:
            continue
        flag = "--" + option.replace("_", "-")
        if any(same_file(path, report) for report in reports):
            raise ValidationError("%s %s and --out %s name the same file" % (flag, path, out))
        if option != "config" and args.config is not None and same_file(path, args.config):
            raise ValidationError("%s %s and --config %s name the same file"
                                  % (flag, path, args.config))


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = compose_config(args)
        check_files(args, cfg)
        report = run_experiment(
            cfg, save_policy=args.save_policy, load_policy=args.load_policy
        )
        write_report(report, cfg.output_path)
    except Exception as exc:
        module = type(exc).__module__
        name = type(exc).__name__
        print("error [%s.%s]: %s" % (module, name, exc), file=sys.stderr)
        return 1
    sys.stdout.write(summary_text(report.summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
