-- Sample schema for dblayout advise: a small order-processing database.
-- Statistics annotations (DISTINCT / RANGE) feed the optimizer's
-- cardinality estimation; ROWS is mandatory.

CREATE TABLE orders (
  o_id INT DISTINCT 2000000 RANGE 1 2000000,
  o_customer_id INT DISTINCT 100000 RANGE 1 100000,
  o_date DATE DISTINCT 1460 RANGE '2000-01-01' '2003-12-31',
  o_total DECIMAL DISTINCT 500000 RANGE 1 100000,
  o_status CHAR(8) DISTINCT 5,
  o_note VARCHAR(120) DISTINCT 1000000
) ROWS 2000000 CLUSTERED (o_id);

CREATE TABLE order_lines (
  ol_order_id INT DISTINCT 2000000 RANGE 1 2000000,
  ol_line_no INT DISTINCT 10 RANGE 1 10,
  ol_product_id INT DISTINCT 50000 RANGE 1 50000,
  ol_qty INT DISTINCT 100 RANGE 1 100,
  ol_price DECIMAL DISTINCT 200000 RANGE 1 5000
) ROWS 9000000 CLUSTERED (ol_order_id, ol_line_no);

CREATE TABLE customers (
  c_id INT DISTINCT 100000 RANGE 1 100000,
  c_name VARCHAR(40) DISTINCT 100000,
  c_segment CHAR(10) DISTINCT 6,
  c_balance DECIMAL DISTINCT 90000 RANGE -1000 50000
) ROWS 100000 CLUSTERED (c_id);

CREATE TABLE products (
  p_id INT DISTINCT 50000 RANGE 1 50000,
  p_name VARCHAR(60) DISTINCT 50000,
  p_category CHAR(12) DISTINCT 40,
  p_price DECIMAL DISTINCT 20000 RANGE 1 5000
) ROWS 50000 CLUSTERED (p_id);

CREATE INDEX ix_o_date ON orders (o_date);
CREATE INDEX ix_c_segment ON customers (c_segment);
