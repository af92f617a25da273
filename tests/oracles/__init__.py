"""Test oracles: slow, obviously-correct models the production path is
held to by the differential suites."""
