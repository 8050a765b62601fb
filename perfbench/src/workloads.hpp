// The four workloads. Each is a closed loop with one client, in one thread:
// it sets itself up several times (setup_s is the median), then runs its
// loop through every measurement phase of the harness, checking each output
// outside the timed region and proving each check fires on a corrupted copy.
#pragma once

#include "harness.hpp"

namespace perfbench {

void run_rail_campaign(Harness& h);
void run_paper_loop(Harness& h);
void run_edit_loop(Harness& h);
void run_deploy_search(Harness& h);

}  // namespace perfbench
