// The out-of-scope wire subject shared by the graph, CLI and session tests.
//
// brake_chain.ssam's BrakeChain (pedal → Sensor → Driver → caliper) with a
// component Spare beside it, outside BrakeChain. With the bypass, two
// BrakeChain wires run Sensor.out → Spare.in → caliper: Spare.in is neither
// one of BrakeChain's IONodes nor one of its subcomponents', so graph FMEA
// and the FTA must both reject the model with one error.
#pragma once

#include "decisive/ssam/model.hpp"

namespace spare_subject {

using decisive::ssam::ObjectId;

/// Builds the subject into `m` and returns BrakeChain. The bypass wires are
/// named `bypass1` and `bypass2`.
inline ObjectId build(decisive::ssam::SsamModel& m, bool bypass) {
  const ObjectId pkg = m.create_component_package("brake-design");
  const ObjectId chain = m.create_component(pkg, "BrakeChain");
  const ObjectId pedal = m.add_io_node(chain, "pedal", "in");
  const ObjectId caliper = m.add_io_node(chain, "caliper", "out");
  const ObjectId sensor = m.create_component(chain, "Sensor");
  m.obj(sensor).set_real("fit", 100.0);
  const ObjectId sensor_in = m.add_io_node(sensor, "Sensor.in", "in");
  const ObjectId sensor_out = m.add_io_node(sensor, "Sensor.out", "out");
  m.add_failure_mode(sensor, "No output", 0.6, "lossOfFunction");
  const ObjectId driver = m.create_component(chain, "Driver");
  m.obj(driver).set_real("fit", 50.0);
  const ObjectId driver_in = m.add_io_node(driver, "Driver.in", "in");
  const ObjectId driver_out = m.add_io_node(driver, "Driver.out", "out");
  m.add_failure_mode(driver, "Open", 0.7, "lossOfFunction");
  m.connect(chain, pedal, sensor_in);
  m.connect(chain, sensor_out, driver_in);
  m.connect(chain, driver_out, caliper);
  const ObjectId spare_in = m.add_io_node(m.create_component(pkg, "Spare"), "Spare.in", "in");
  if (bypass) {
    m.obj(m.connect(chain, sensor_out, spare_in)).set_string("name", "bypass1");
    m.obj(m.connect(chain, spare_in, caliper)).set_string("name", "bypass2");
  }
  return chain;
}

}  // namespace spare_subject
