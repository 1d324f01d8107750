from hypothesis import settings

# Every property test draws the same examples on every run, with no time limit per example.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


class ScriptedRng:
    """Hands out a fixed sequence of values through the randrange interfaces."""

    def __init__(self, values):
        self._values = list(values)

    def randrange(self, start, stop):
        if not self._values:
            raise AssertionError("scripted rng exhausted")
        v = self._values.pop(0)
        if not start <= v < stop:
            raise AssertionError(f"scripted value {v} outside [{start}, {stop})")
        return v

    def getrandbits(self, k):
        return self.randrange(0, 1 << k)

    def randrange_array(self, start, stop, count):
        return [self.randrange(start, stop) for _ in range(count)]
