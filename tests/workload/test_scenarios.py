"""Tests for the packaged example scenarios and the experiment runner."""

from repro.experiments import runner
from repro.workload.scenarios import ParkingScenario, SmartBuildingScenario, StockTickerScenario


class TestScenarioConstruction:
    def test_parking_scenario_build_exposes_components(self):
        result = ParkingScenario(horizon=10.0).build()
        assert result.consumer.client_id == "car"
        assert result.producers[0].client_id == "parking-sensors"
        assert result.subscription_id in result.consumer.subscription_ids()
        assert "movement_graph" in result.extra
        assert result.driver is not None

    def test_parking_scenario_plans_are_configurable(self):
        from repro.core.adaptivity import UncertaintyPlan

        plan = UncertaintyPlan.trivial(3)
        result = ParkingScenario(horizon=10.0, plan=plan).build()
        assert result.extra["plan"] is plan

    def test_smart_building_uses_single_border_broker(self):
        result = SmartBuildingScenario(horizon=10.0).build()
        assert result.consumer.border_broker.name == "B1"
        assert result.extra["movement_graph"].locations()

    def test_stock_ticker_roams_across_leaves(self):
        result = StockTickerScenario(horizon=20.0).build()
        itinerary = result.extra["itinerary"]
        assert len(itinerary.brokers_visited()) >= 1

    def test_scenarios_are_deterministic_per_seed(self):
        first = ParkingScenario(horizon=15.0, seed=5).run()
        second = ParkingScenario(horizon=15.0, seed=5).run()
        assert [r.identity for r in first.consumer.received] == [
            r.identity for r in second.consumer.received
        ]

    def test_different_seeds_change_the_workload(self):
        first = ParkingScenario(horizon=15.0, seed=5).run()
        second = ParkingScenario(horizon=15.0, seed=6).run()
        assert [r.identity for r in first.consumer.received] != [
            r.identity for r in second.consumer.received
        ]


class TestExperimentRunner:
    def test_run_all_quick_passes_everything(self):
        outcomes = runner.run_all(quick=True)
        assert len(outcomes) == 9
        failures = [outcome.name for outcome in outcomes if not outcome.passed]
        assert failures == []

    def test_report_formatting(self):
        outcomes = runner.run_all(quick=True)
        report = runner.format_report(outcomes)
        assert "Table 1" in report
        assert "Figure 9" in report
        assert "9 / 9 experiments match the paper" in report
