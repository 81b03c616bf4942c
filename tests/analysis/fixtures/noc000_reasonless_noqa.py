"""Lint fixture: suppression without a reason (NOC000)."""


def collect(rates=[]):  # noqa: NOC104
    return rates
