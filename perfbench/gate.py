"""Correctness gate applied to every verification pass of a benchmark run.

A check counts as failed in a pass when its status is not `pass` (negative
controls already invert), when it is a negative control that did not trip,
when it sits in an affine scenario and its residual is not bitwise zero, or
when its report entry, or the report around it, differs from the run's first
report in anything but `seconds`.
"""

import json

NEGATIVE_TRIPPED = "negative control: failure expected and observed"


def _canonical(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


class Gate:
    """Remembers each scenario's first report and counts failed checks."""

    def __init__(self):
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, key, entries, report_text):
        """Judge one written report; key names the scenario, entries are its checks."""
        report = json.loads(report_text)
        checks = report.pop("checks")
        stripped = []
        for c in checks:
            c = dict(c)
            c.pop("seconds", None)
            stripped.append(_canonical(c))
        frame = _canonical(report)
        first = self.first.setdefault(key, (frame, stripped))
        affine = any(e["type"] == "affine-vanishing" for e in entries)
        for i, (entry, result) in enumerate(zip(entries, checks)):
            problem = None
            if result.get("status") != "pass":
                problem = "status %s %s" % (result.get("status"), result.get("error", ""))
            elif entry.get("expect") == "fail" and result.get("detail") != NEGATIVE_TRIPPED:
                problem = "negative control did not trip"
            elif affine and result.get("max_residual") != 0.0:
                problem = "affine residual %r is not bitwise zero" % result.get("max_residual")
            elif first[0] != frame or i >= len(first[1]) or first[1][i] != stripped[i]:
                problem = "report differs from the run's first report"
            self.attempted += 1
            if problem:
                self.failed += 1
                self.messages.append("%s/%s: %s" % (key, entry["name"], problem))
        if len(checks) != len(entries):
            self.attempted += 1
            self.failed += 1
            self.messages.append("%s: %d results for %d checks"
                                 % (key, len(checks), len(entries)))

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 1.0
