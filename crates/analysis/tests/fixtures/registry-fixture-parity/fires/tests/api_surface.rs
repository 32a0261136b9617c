pub const REGISTERED_IDS: [&str; 1] = ["habf"];
